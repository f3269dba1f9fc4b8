"""Tests for topology discovery (candidate index) and its LB wiring."""

import pytest

from repro.cdn import build_deployments
from repro.core import (
    CandidateIndex,
    GlobalLoadBalancer,
    MeasurementService,
    Scorer,
    nearest_cluster,
)
from repro.api import build_world
from repro.core.policies import MapTarget
from repro.core.units.builders import build_units
from repro.experiments.scales import get_scale
from repro.net.geometry import great_circle_miles
from repro.topology import InternetConfig, build_internet


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=9)


@pytest.fixture(scope="module")
def plan(net):
    return build_deployments(80, net.geodb, seed=4,
                             host_ases=list(net.ases.values()))


@pytest.fixture(scope="module")
def index(plan):
    return CandidateIndex(plan, k_nearest=8)


def target_for(block):
    return MapTarget(geo=block.geo, asn=block.asn)


def square_scan(plan, k_nearest, target):
    """Reference ring search: scans the full (2r+1)^2 square of cells
    per ring and keeps the perimeter, as the index did before it
    walked only the perimeter."""
    clusters = list(plan.clusters.values())
    if len(clusters) <= k_nearest:
        return clusters
    cells = {}
    for cluster in clusters:
        cells.setdefault((int(cluster.geo.lat // 10.0),
                          int(cluster.geo.lon // 10.0)), []).append(cluster)
    home = (int(target.geo.lat // 10.0), int(target.geo.lon // 10.0))
    found, seen = [], set()
    for ring in range(19):
        added = False
        for dy in range(-ring, ring + 1):
            for dx in range(-ring, ring + 1):
                if max(abs(dy), abs(dx)) != ring:
                    continue
                cell = (home[0] + dy, int((home[1] + dx + 18) % 36 - 18))
                for cluster in cells.get(cell, ()):
                    if cluster.cluster_id not in seen:
                        seen.add(cluster.cluster_id)
                        found.append((great_circle_miles(
                            target.geo, cluster.geo), cluster))
                        added = True
        if len(found) >= k_nearest and ring >= 1:
            break
        if not added and ring > 4 and found:
            break
    found.sort(key=lambda pair: (pair[0], pair[1].cluster_id))
    out = [cluster for _d, cluster in found[:k_nearest]]
    for cluster in clusters:
        if cluster.asn == target.asn and cluster.cluster_id not in ids(out):
            out.append(cluster)
    return out


def ids(clusters):
    return [c.cluster_id for c in clusters]


@pytest.fixture(scope="module", params=["tiny", "large"])
def scale_world(request):
    return build_world(get_scale(request.param).world)


class TestCandidateIndex:
    def test_returns_at_least_k(self, net, plan, index):
        for block in net.blocks[:50]:
            candidates = index.candidates(target_for(block))
            assert len(candidates) >= min(8, len(plan))

    def test_candidates_include_true_nearest(self, net, plan, index):
        for block in net.blocks[:50]:
            target = target_for(block)
            best = nearest_cluster(plan, target.geo)
            ids = {c.cluster_id for c in index.candidates(target)}
            assert best.cluster_id in ids

    def test_candidates_are_nearby(self, net, plan, index):
        block = max(net.blocks, key=lambda b: b.demand)
        target = target_for(block)
        candidates = index.candidates(target)[:8]
        worst = max(great_circle_miles(target.geo, c.geo)
                    for c in candidates)
        all_sorted = sorted(
            great_circle_miles(target.geo, c.geo)
            for c in plan.clusters.values())
        # The 8 returned must be within a small factor of the true
        # 8-nearest radius.
        assert worst <= 3 * all_sorted[7] + 50

    def test_same_as_clusters_appended(self, net, plan, index):
        in_network = [c for c in plan.clusters.values()
                      if c.asn != 20940]
        if not in_network:
            pytest.skip("no in-ISP clusters in this plan")
        cluster = in_network[0]
        target = MapTarget(geo=cluster.geo, asn=cluster.asn)
        ids = {c.cluster_id for c in index.candidates(target)}
        same_as = {c.cluster_id for c in plan.clusters.values()
                   if c.asn == cluster.asn}
        assert same_as <= ids

    def test_small_universe_returns_all(self, net):
        small_plan = build_deployments(5, net.geodb, seed=6)
        small_index = CandidateIndex(small_plan, k_nearest=16)
        target = MapTarget(geo=net.blocks[0].geo, asn=net.blocks[0].asn)
        assert len(small_index.candidates(target)) == 5

    def test_rejects_bad_k(self, plan):
        with pytest.raises(ValueError):
            CandidateIndex(plan, k_nearest=0)

    def test_coverage_report(self, index, plan):
        report = index.coverage_report()
        assert report["clusters"] == len(plan)
        assert report["cells"] >= 1


class TestLoadBalancerWithIndex:
    def test_same_choice_as_full_scan_for_typical_targets(self, net,
                                                          plan, index):
        measurement = MeasurementService(net.geodb)
        scorer = Scorer(measurement)
        full = GlobalLoadBalancer(plan, scorer)
        pruned = GlobalLoadBalancer(plan, scorer, candidate_index=index)
        agreements = 0
        checked = 0
        for block in net.blocks[:60]:
            target = target_for(block)
            a = full.pick_cluster(target)
            b = pruned.pick_cluster(target)
            checked += 1
            if a is b:
                agreements += 1
        # The pre-cut may miss a marginally better distant candidate,
        # but must agree for the overwhelming majority of clients.
        assert agreements >= 0.85 * checked

    def test_index_fallback_when_candidates_dead(self, net, plan,
                                                 index):
        measurement = MeasurementService(net.geodb)
        scorer = Scorer(measurement)
        pruned = GlobalLoadBalancer(plan, scorer, candidate_index=index)
        block = net.blocks[0]
        target = target_for(block)
        candidates = index.candidates(target)
        for cluster in candidates:
            for server in cluster.servers:
                server.fail()
        chosen = pruned.pick_cluster(target)
        assert chosen is not None and chosen.alive
        for cluster in candidates:
            for server in cluster.servers:
                server.recover()


class TestCandidateMemo:
    """Candidates are discovered once per (location, AS) target and
    served from a memo afterwards; the memo must never change an
    answer."""

    def _assert_memo_matches_cold(self, plan, targets):
        warm = CandidateIndex(plan)
        for target in targets:
            warm.candidates(target)
        for target in targets:
            cold = CandidateIndex(plan).candidates(target)
            assert ids(warm.candidates(target)) == ids(cold)
            assert ids(cold) == ids(square_scan(plan, warm.k_nearest,
                                                target))

    def test_every_client_block(self, scale_world):
        targets = [target_for(block)
                   for block in scale_world.internet.blocks]
        self._assert_memo_matches_cold(scale_world.deployments, targets)

    def test_routing_aware_unit_targets(self, scale_world):
        units = build_units("routing_aware", scale_world.internet)
        targets = [MapTarget(geo=unit.centroid(),
                             asn=unit.asn if unit.asn is not None else -1)
                   for unit in units if unit.members]
        assert targets
        self._assert_memo_matches_cold(scale_world.deployments, targets)

    def test_returned_list_is_the_callers(self, net, plan):
        index = CandidateIndex(plan, k_nearest=8)
        target = target_for(net.blocks[0])
        first = index.candidates(target)
        expected = ids(first)
        first.clear()
        again = index.candidates(target)
        assert ids(again) == expected
        again.reverse()
        again.append(again[0])
        assert ids(index.candidates(target)) == expected

    def test_cluster_down_between_calls_is_filtered(self, net, plan):
        index = CandidateIndex(plan, k_nearest=8)
        scorer = Scorer(MeasurementService(net.geodb))
        balancer = GlobalLoadBalancer(plan, scorer, candidate_index=index)
        target = target_for(net.blocks[0])
        best = balancer.rank_clusters(target)[0]
        for server in best.servers:
            server.fail()
        try:
            ranked = balancer.rank_clusters(target)
            assert best not in ranked
            assert ranked and all(c.alive for c in ranked)
            # The memo still holds the dead cluster: liveness is the
            # caller's filter, not part of the discovered candidates.
            assert best in index.candidates(target)
        finally:
            for server in best.servers:
                server.recover()
        assert balancer.rank_clusters(target)[0] is best
