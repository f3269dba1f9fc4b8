"""Tests for the IPv6 client-subnet option (RFC 7871 family 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnsproto.edns import (
    ClientSubnetV6Option,
    EdnsOptions,
    OptRecord,
)
from repro.dnsproto.message import Message, Question
from repro.dnsproto.wire import WireFormatError

V6_DOC_PREFIX = 0x20010DB8 << 96  # 2001:db8::/32 documentation prefix


def make_option(source_len=56, scope_len=0):
    mask = ((1 << source_len) - 1) << (128 - source_len) if source_len \
        else 0
    return ClientSubnetV6Option(V6_DOC_PREFIX & mask, source_len,
                                scope_len)


class TestV6Option:
    def test_roundtrip(self):
        option = make_option(56, 48)
        assert ClientSubnetV6Option.decode(option.encode()) == option

    def test_encode_length_is_minimal(self):
        option = make_option(56)
        # 2 family + 1 + 1 + ceil(56/8)=7 address bytes
        assert len(option.encode()) == 11

    def test_rejects_host_bits(self):
        with pytest.raises(WireFormatError):
            ClientSubnetV6Option(V6_DOC_PREFIX | 1, 32)

    def test_rejects_bad_lengths(self):
        with pytest.raises(WireFormatError):
            ClientSubnetV6Option(0, 129)
        with pytest.raises(WireFormatError):
            ClientSubnetV6Option(0, 56, 200)

    def test_for_response(self):
        option = make_option(56)
        response = option.for_response(40)
        assert response.scope_prefix_len == 40
        assert response.address == option.address

    def test_decode_rejects_v4_family(self):
        raw = b"\x00\x01\x18\x00\x01\x02\x03"
        with pytest.raises(WireFormatError):
            ClientSubnetV6Option.decode(raw)

    @given(st.integers(min_value=0, max_value=128),
           st.integers(min_value=0, max_value=128),
           st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, source, scope, raw_addr):
        mask = (((1 << source) - 1) << (128 - source)) if source else 0
        option = ClientSubnetV6Option(raw_addr & mask, source, scope)
        assert ClientSubnetV6Option.decode(option.encode()) == option


class TestV6InMessages:
    def make_message(self, option):
        return Message(
            msg_id=9,
            questions=[Question("a.cdn.example")],
            opt=OptRecord(EdnsOptions(client_subnet_v6=option)),
        )

    def test_message_roundtrip(self):
        option = make_option(56, 0)
        out = Message.decode(self.make_message(option).encode())
        assert out.opt.options.client_subnet_v6 == option
        # The v4 accessor stays empty: the mapping system ignores v6.
        assert out.client_subnet is None

    def test_duplicate_v6_rejected(self):
        option = make_option(56)
        message = self.make_message(option)
        body = option.encode()
        message.opt = OptRecord(EdnsOptions(
            client_subnet_v6=option,
            unknown_options=((8, body),),  # second ECS option, code 8
        ))
        with pytest.raises(WireFormatError):
            Message.decode(message.encode())

    def test_authoritative_ignores_v6_gracefully(self):
        """A v6-ECS query must be answered (scope-0 style), not
        FORMERRed: v6 clients get NS-based mapping."""
        from repro.dnssrv import AuthoritativeServer, StaticZone
        from repro.dnsproto.message import ResourceRecord
        from repro.dnsproto.rdata import ARdata
        from repro.dnsproto.types import QType, Rcode

        zone = StaticZone().add(ResourceRecord(
            "a.cdn.example", QType.A, 60, ARdata(1)))
        server = AuthoritativeServer(1)
        server.attach_zone("cdn.example", zone)
        wire = self.make_message(make_option(56)).encode()
        out = server.handle_wire(wire, src_ip=42, now=0.0)
        response = Message.decode(out)
        assert response.flags.rcode == Rcode.NOERROR
        assert response.answers
