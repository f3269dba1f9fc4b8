"""Wire fidelity of the in-memory DNS hop.

The transport hands :class:`Message` objects to endpoints instead of
decoding bytes in flight; each hop encodes the query once and the
endpoint encodes its response once.  These tests keep that shortcut
honest: over a whole scenario every message must survive the codec
unchanged, and the bytes the network counts must be exactly the
encoded sizes.  The scenario runs resolver fleets with a PoP outage
and oversize provider zones whose answers never fit in UDP, so the
truncation and TCP-retry path is covered too.
"""

import datetime
from dataclasses import dataclass, replace

import pytest

from repro.api import build_world
from repro.dnsproto.message import Message, ResourceRecord, make_query
from repro.dnsproto.rdata import TXTRdata
from repro.dnsproto.types import QType
from repro.dnssrv import AuthoritativeServer
from repro.dnssrv.transport import Network
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.simulation.rollout import RolloutConfig, run_days
from repro.simulation.world import WorldConfig
from repro.topology.resolvers import ResolverPolicySet


@dataclass
class OversizeZone:
    """Answers as ``inner`` does, padded with TXT records past the
    largest EDNS payload, so every UDP answer is truncated and the
    resolver retries over TCP."""

    inner: object

    def answer(self, qname, qtype, ecs, src_ip, now):
        answer = self.inner.answer(qname, qtype, ecs, src_ip, now)
        if not answer.records:
            return answer
        ttl = min(record.ttl for record in answer.records)
        pad = tuple(ResourceRecord(qname, QType.TXT, ttl,
                                   TXTRdata.from_text("x" * 250))
                    for _ in range(20))
        return replace(answer, records=answer.records + pad)


def _provider_zones(world):
    """(zone, server) for every zone the providers' own name servers
    (not the CDN's) serve."""
    cdn = {ns.ip for ns in world.nameservers}
    return [(zone, world.network.endpoint(ip))
            for zone in world.directory.zones()
            for ip in world.directory.authority_for(zone)[1]
            if ip not in cdn]


@pytest.fixture(scope="module")
def fidelity_run():
    world = build_world(WorldConfig.tiny(),
                        resolver_policies=ResolverPolicySet())
    zones = _provider_zones(world)
    assert zones
    for zone, server in zones:
        server.attach_zone(zone, OversizeZone(server.zone_for(zone)))
    rollout = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 6),
        rollout_start=datetime.date(2014, 3, 2),
        rollout_end=datetime.date(2014, 3, 3),
        sessions_per_day=80,
        seed=5,
    )
    faults = FaultSchedule((
        FaultEvent(start_day=2, duration_days=2,
                   target="public:GloboDNS:washington",
                   kind=FaultKind.POP_OUTAGE),
    ))
    hops = []
    original = Network.query

    def checked_query(self, src_ip, dst_ip, message, now, tcp=False):
        hop = original(self, src_ip, dst_ip, message, now, tcp=tcp)
        hops.append((message, message.encode(), hop, tcp))
        return hop

    Network.query = checked_query
    try:
        result = run_days(world, rollout,
                          injector=FaultInjector(world, faults))
    finally:
        Network.query = original
    return world, result, hops


class TestScenarioWireFidelity:
    def test_the_scenario_exercises_every_path(self, fidelity_run):
        world, result, hops = fidelity_run
        assert len(hops) > 100
        assert any(tcp for *_, tcp in hops), "no TCP retry ran"
        assert any(hop.response is not None and hop.response.flags.tc
                   for _, _, hop, _ in hops)
        assert sum(result.catchment_shifted_per_day.values()) > 0

    def test_every_query_survives_the_codec(self, fidelity_run):
        _, _, hops = fidelity_run
        for query, wire, _, _ in hops:
            assert Message.decode(wire) == query

    def test_every_response_is_its_wire(self, fidelity_run):
        _, _, hops = fidelity_run
        answered = 0
        for _, _, hop, _ in hops:
            if hop.response is None:
                assert hop.wire is None
                continue
            answered += 1
            assert Message.decode(hop.wire) == hop.response
            assert hop.wire == hop.response.encode()
        assert answered

    def test_network_bytes_are_the_encoded_lengths(self, fidelity_run):
        world, _, hops = fidelity_run
        total = sum(len(wire) + len(hop.wire or b"")
                    for _, wire, hop, _ in hops)
        assert total == world.network.bytes_sent
        gauges = world.obs.registry.snapshot()["gauges"]
        assert gauges["network.bytes"] == total
        assert gauges["network.queries"] == len(hops)


class TestWireAdapters:
    """The endpoints' raw-bytes entry points answer exactly what the
    in-memory path answers."""

    def test_authoritative_wire_matches_message_path(self, fidelity_run):
        world, _, _ = fidelity_run
        server = world.nameservers[0]
        query = make_query(world.catalog.providers[0].cdn_hostname,
                           msg_id=7)
        response, wire = server.handle_query(query, src_ip=server.ip,
                                             now=0.0)
        assert server.handle_wire(query.encode(), src_ip=server.ip,
                                  now=0.0) == wire
        assert Message.decode(wire) == response

    def test_recursive_wire_adapter(self, fidelity_run):
        world, _, _ = fidelity_run
        ldns = next(iter(world.ldns_registry.values()))
        name = world.catalog.providers[0].cdn_hostname
        wire = ldns.handle_wire(make_query(name, msg_id=9).encode(),
                                src_ip=ldns.ip, now=0.0)
        response = Message.decode(wire)
        assert response.msg_id == 9 and response.flags.ra
        assert ldns.handle_wire(b"\x00", src_ip=ldns.ip, now=0.0) is None

    def test_dead_server_times_out_on_both_paths(self):
        server = AuthoritativeServer(1)
        server.fail()
        query = make_query("a.example")
        assert server.handle_query(query, src_ip=2, now=0.0) is None
        assert server.handle_wire(query.encode(), src_ip=2,
                                  now=0.0) is None
        assert server.queries_received == 0
