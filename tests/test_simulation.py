"""Integration tests: world builder, session model, roll-out, DNS load."""

import datetime
import random

import pytest

from repro.core.policies import EUMappingPolicy, NSMappingPolicy
from repro.clock import SimClock
from repro.api import ScenarioSpec, build_world, run
from repro.simulation import (
    RolloutConfig,
    WorldConfig,
    simulate_session,
)
from repro.simulation.dnsload import DnsLoadConfig, drive_dns_load
from repro.simulation.rollout import classify_expectation_groups


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(10)
        assert clock.now() == 10
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_advance_to(self):
        clock = SimClock(5)
        clock.advance_to(20)
        assert clock.now() == 20
        with pytest.raises(ValueError):
            clock.advance_to(1)

    def test_dates(self):
        clock = SimClock(start_date=datetime.date(2014, 1, 1))
        clock.advance(86400 * 31)
        assert clock.date == datetime.date(2014, 2, 1)
        assert clock.seconds_for_date(datetime.date(2014, 1, 2)) == 86400

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1)


class TestWorldBuilder:
    def test_components_wired(self, world):
        assert len(world.nameservers) == world.config.n_nameservers
        assert len(world.ldns_registry) == len(world.internet.resolvers)
        assert len(world.origins) == len(world.catalog.providers)
        assert len(world.deployments) == world.config.n_deployments

    def test_nameservers_answer_cdn_zone(self, world):
        ns = world.nameservers[0]
        assert ns.zone_for("e1000.cdn.example") is world.mapping

    def test_directory_covers_provider_zones(self, world):
        provider = world.catalog.providers[0]
        assert world.directory.authority_for(provider.domain) is not None
        assert world.directory.authority_for("e1000.cdn.example") is not None

    def test_ecs_flipping(self, world):
        world.disable_all_ecs()
        assert world.ecs_enabled_ids() == []
        public = world.public_ldns_ids()
        flipped = world.enable_ecs(public)
        assert flipped == len(public)
        assert sorted(world.ecs_enabled_ids()) == sorted(public)
        # Second call is a no-op.
        assert world.enable_ecs(public) == 0
        world.disable_all_ecs()

    def test_isp_resolvers_never_flip(self, world):
        isp_ids = [rid for rid in world.ldns_registry
                   if rid not in set(world.public_ldns_ids())]
        assert world.enable_ecs(isp_ids[:5]) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_deployments=2, n_nameservers=5)


class TestSessionModel:
    def test_session_end_to_end(self, world):
        rng = random.Random(1)
        block = world.internet.pick_block(rng)
        session = simulate_session(world, block, now=0.0, rng=rng)
        assert session.dns_ms > 0
        assert session.rtt_ms > 0
        assert session.ttfb_ms > session.rtt_ms  # includes server time
        assert session.download_ms > 0
        assert session.requests >= 2
        assert session.mapping_distance_miles >= 0
        assert session.cluster_id in world.deployments.clusters

    def test_page_load_composition(self, world):
        rng = random.Random(2)
        block = world.internet.pick_block(rng)
        session = simulate_session(world, block, now=0.0, rng=rng)
        assert session.page_load_ms == pytest.approx(
            session.dns_ms + session.connect_ms + session.ttfb_ms
            + session.download_ms)

    def test_repeat_sessions_hit_edge_cache(self, world):
        rng = random.Random(3)
        block = world.internet.pick_block(rng)
        provider = world.catalog.providers[0]
        page = next(p for p in provider.pages if p.objects)
        first = simulate_session(world, block, 0.0, rng, provider, page)
        second = simulate_session(world, block, 1.0, rng, provider, page)
        assert second.edge_cache_hits >= first.edge_cache_hits
        assert second.download_ms <= first.download_ms

    def test_dns_caching_between_sessions(self, world):
        rng = random.Random(4)
        # Use a single-LDNS block so both sessions share one resolver
        # cache deterministically.
        block = next(b for b in world.internet.blocks
                     if len(b.ldns) == 1)
        provider = world.catalog.providers[1]
        simulate_session(world, block, 0.0, rng, provider)
        repeat = simulate_session(world, block, 5.0, rng, provider)
        assert repeat.upstream_dns_queries == 0

    def test_far_client_sees_higher_rtt(self, world):
        rng = random.Random(5)
        results = []
        for block in world.internet.blocks[:40]:
            session = simulate_session(world, block, 0.0, rng,
                                       world.catalog.providers[0])
            results.append(session)
        by_distance = sorted(results,
                             key=lambda s: s.mapping_distance_miles)
        near_rtt = sum(s.rtt_ms for s in by_distance[:5]) / 5
        far_rtt = sum(s.rtt_ms for s in by_distance[-5:]) / 5
        assert far_rtt > near_rtt


class TestExpectationClassification:
    def test_medians_positive(self, world):
        medians = classify_expectation_groups(world)
        assert medians
        assert all(m >= 0 for m in medians.values())

    def test_known_split_tendency(self, world):
        """Countries the paper flags as high-expectation should have
        larger medians than the well-served ones when both present."""
        medians = classify_expectation_groups(world)
        high_side = [medians[c] for c in ("IN", "BR", "AR")
                     if c in medians]
        low_side = [medians[c] for c in ("GB", "DE", "NL", "FR")
                    if c in medians]
        if high_side and low_side:
            assert max(high_side) > min(low_side)


class TestRollout:
    @pytest.fixture(scope="class")
    def result(self):
        config = RolloutConfig(
            start_date=datetime.date(2014, 3, 20),
            end_date=datetime.date(2014, 4, 25),
            rollout_start=datetime.date(2014, 3, 28),
            rollout_end=datetime.date(2014, 4, 15),
            sessions_per_day=80,
            seed=5,
        )
        outcome = run(ScenarioSpec(world=WorldConfig.tiny(),
                                   rollout=config, monitor=False))
        return outcome.result, outcome.world

    def test_beacons_recorded_every_day(self, result):
        rollout, _ = result
        days = {b.day for b in rollout.rum.beacons}
        assert days == set(range(rollout.config.n_days))

    def test_ecs_ramp(self, result):
        rollout, world = result
        series = rollout.ecs_resolvers_per_day
        n_public = len(world.public_ldns_ids())
        start = rollout.config.day_index(rollout.config.rollout_start)
        end = rollout.config.day_index(rollout.config.rollout_end)
        assert series[0] == 0
        assert series[start] == 0 or series[start] < n_public // 2
        assert series[end] == n_public
        values = [series[d] for d in sorted(series)]
        assert values == sorted(values)

    def test_mapping_distance_improves_for_public_users(self, result):
        rollout, _ = result
        before = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=True,
            day_range=rollout.before_window)
        after = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=True,
            day_range=rollout.after_window)
        assert before and after
        assert (sum(after) / len(after)) < 0.6 * (sum(before) / len(before))

    def test_isp_users_unaffected(self, result):
        rollout, _ = result
        before = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=False,
            day_range=rollout.before_window)
        after = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=False,
            day_range=rollout.after_window)
        mean_before = sum(before) / len(before)
        mean_after = sum(after) / len(after)
        assert 0.5 < mean_after / mean_before < 2.0

    def test_requests_exceed_sessions(self, result):
        rollout, _ = result
        for day, sessions in rollout.sessions_per_day.items():
            assert rollout.requests_per_day[day] > sessions

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RolloutConfig(start_date=datetime.date(2014, 5, 1),
                          rollout_start=datetime.date(2014, 4, 1))
        with pytest.raises(ValueError):
            RolloutConfig(sessions_per_day=0)

    def test_rollout_fraction(self):
        config = RolloutConfig()
        assert config.rollout_fraction(0) == 0.0
        assert config.rollout_fraction(config.n_days - 1) == 1.0
        mid = config.day_index(config.rollout_start) + 9
        assert 0.0 < config.rollout_fraction(mid) < 1.0


class TestDnsLoad:
    def test_inflation_mechanism(self):
        """ECS must raise authoritative query rate from public LDNSes."""
        world = build_world(WorldConfig(
            internet=world_internet(), n_deployments=30, n_providers=6,
            n_nameservers=3, dns_ttl=1200))
        world.disable_all_ecs()
        config = DnsLoadConfig(lookups_per_day=15000, n_days=1,
                               start_day=0, seed=1)
        drive_dns_load(world, config)
        before = world.query_log.rate_in(0, 86400, public_only=True)
        world.enable_ecs(world.public_ldns_ids())
        config2 = DnsLoadConfig(lookups_per_day=15000, n_days=1,
                                start_day=2, seed=2)
        drive_dns_load(world, config2)
        after = world.query_log.rate_in(2 * 86400, 3 * 86400,
                                        public_only=True)
        assert after > 1.2 * before

    def test_counters_consistent(self, world):
        world.disable_all_ecs()
        result = drive_dns_load(world, DnsLoadConfig(
            lookups_per_day=500, n_days=2, start_day=10, seed=3))
        assert result.lookups == 1000
        assert result.cache_hits + result.upstream_queries >= (
            result.lookups - result.upstream_queries)
        assert result.client_requests > result.lookups
        assert sorted(result.lookups_per_day_series) == [10, 11]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DnsLoadConfig(lookups_per_day=0)


def world_internet():
    from repro.topology import InternetConfig
    return InternetConfig.tiny()
