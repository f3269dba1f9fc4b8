"""Fuzz tests: the codec and servers must never crash on hostile bytes.

A resolver on the open Internet parses attacker-controlled datagrams;
the only acceptable failure mode is :class:`WireFormatError` (servers
translate it to FORMERR).  Hypothesis drives random and
mutated-valid-message inputs through the decoder and the server entry
points.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dnsproto import (
    ClientSubnetOption,
    Message,
    WireFormatError,
    make_query,
)
from repro.dnssrv import AuthoritativeServer, StaticZone, WhoAmIZone
from repro.net.ipv4 import Prefix


def valid_wire() -> bytes:
    ecs = ClientSubnetOption(Prefix.parse("10.20.30.0/24"))
    return make_query("a.long-ish-name.cdn.example", msg_id=7,
                      ecs=ecs).encode()


class TestDecoderFuzz:
    @given(st.binary(max_size=256))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        try:
            Message.decode(data)
        except WireFormatError:
            pass  # the only acceptable exception

    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=300)
    def test_single_byte_mutations(self, position, value):
        data = bytearray(valid_wire())
        if position >= len(data):
            position = position % len(data)
        data[position] = value
        try:
            Message.decode(bytes(data))
        except WireFormatError:
            pass

    @given(st.integers(min_value=0, max_value=80))
    @settings(max_examples=100)
    def test_truncations(self, keep):
        data = valid_wire()[:keep]
        try:
            Message.decode(data)
        except WireFormatError:
            pass

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_appended_garbage_rejected(self, garbage):
        data = valid_wire() + garbage
        with pytest.raises(WireFormatError):
            Message.decode(data)

    @example(b"\xc0\x00" * 8)
    @given(st.binary(max_size=32))
    def test_pointer_bombs_terminate(self, tail):
        # Header + question-section bytes full of compression pointers.
        data = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" + tail
        try:
            Message.decode(data)
        except WireFormatError:
            pass


class TestServerFuzz:
    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_authoritative_survives_garbage(self, data):
        server = AuthoritativeServer(1)
        server.attach_zone("cdn.example", StaticZone())
        server.attach_zone("whoami.cdn.example", WhoAmIZone())
        out = server.handle_wire(data, src_ip=42, now=0.0)
        # Either no reply (undecodable id) or a well-formed message.
        if out is not None:
            Message.decode(out)

    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=200)
    def test_authoritative_survives_mutations(self, position, value):
        server = AuthoritativeServer(1)
        server.attach_zone("cdn.example", StaticZone())
        data = bytearray(valid_wire())
        data[position % len(data)] = value
        out = server.handle_wire(bytes(data), src_ip=42, now=0.0)
        if out is not None:
            Message.decode(out)
