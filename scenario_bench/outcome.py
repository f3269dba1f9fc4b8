"""What one scenario run produced: output checks, digest, metrics.

Works on the object :func:`repro.api.run` returns, serial
(``ScenarioRun``) or sharded (``ShardedRun``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

#: Published-map ladder tiers, plus ``scored`` for answers the
#: per-query scoring path made (no control plane).
TIERS = ("scored", "fresh_eu", "stale_eu", "fresh_ru", "stale_ru", "ns",
         "ns_fallback", "static_geo")


def registry_of(outcome):
    """The run's metrics registry (merged across shards if sharded)."""
    registry = getattr(outcome, "registry", None)
    return registry if registry is not None else outcome.world.obs.registry


def totals(result) -> Dict[str, int]:
    return {"sessions": sum(result.sessions_per_day.values()),
            "failed": sum(result.failed_sessions_per_day.values())}


def check_outputs(result, snapshot: Dict) -> List[str]:
    """Problems with a run's outputs; empty when they are consistent.

    * every session that did not fail left exactly one RUM beacon;
    * the ``rollout.sessions`` counter equals the per-day session sum;
    * failures are counted against attempts: the failed-session counter
      equals the per-day failure sum, which is within [0, attempts].
    """
    counts = totals(result)
    sessions, failed = counts["sessions"], counts["failed"]
    counters = snapshot["counters"]
    problems = []
    if sessions < 1:
        problems.append("no sessions attempted")
    beacons = len(result.rum.beacons)
    if beacons != sessions - failed:
        problems.append(f"beacons {beacons} != sessions {sessions} "
                        f"- failed {failed}")
    counted = counters.get("rollout.sessions", 0.0)
    if counted != sessions:
        problems.append(f"rollout.sessions {counted} != sum of "
                        f"sessions_per_day {sessions}")
    counted_failed = counters.get("rollout.failed_sessions", 0.0)
    if counted_failed != failed:
        problems.append(f"rollout.failed_sessions {counted_failed} != "
                        f"sum of failed_sessions_per_day {failed}")
    if not 0 <= failed <= sessions:
        problems.append(f"failed sessions {failed} outside "
                        f"[0, {sessions}] attempts")
    return problems


def digest(result, snapshot: Dict) -> str:
    """SHA-256 over per-day counts, the registry snapshot and the
    beacon count: equal digests mean the runs produced the same bytes."""
    per_day = {
        name: {str(day): value
               for day, value in sorted(getattr(result, name).items())}
        for name in ("sessions_per_day", "requests_per_day",
                     "failed_sessions_per_day",
                     "degraded_sessions_per_day",
                     "catchment_shifted_per_day",
                     "ecs_resolvers_per_day")}
    payload = {"per_day": per_day, "snapshot": snapshot,
               "beacons": len(result.rum.beacons)}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def simulated(result, snapshot: Dict) -> Dict[str, float]:
    """The simulated outcomes: RUM-beacon mapping distance and RTT
    (paper Section 4) and authoritative queries per session (Section
    5).  They repeat exactly for a seed."""
    beacons = result.rum.beacons
    distance = np.array([b.mapping_distance_miles for b in beacons])
    rtt = np.array([b.rtt_ms for b in beacons])
    sessions = totals(result)["sessions"]
    return {
        "sim.mapping_distance_mi_p50": float(np.percentile(distance, 50)),
        "sim.rtt_ms_p50": float(np.percentile(rtt, 50)),
        "sim.rtt_ms_p99": float(np.percentile(rtt, 99)),
        "sim.auth_queries_per_session":
            snapshot["gauges"].get("auth.queries", 0.0) / sessions,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(layers: Dict[str, Dict[str, float]], session_s,
                  snapshot: Dict, result) -> Dict[str, float]:
    """Per-layer metrics from span totals and the run's registry.

    ``layers`` maps a layer to its span ``calls``, summed ``self_s``
    and outermost inclusive ``s``; ``session_s`` holds every session
    span's wall seconds.
    """
    def layer(name: str) -> Dict[str, float]:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "s": 0.0})

    gauges, counters = snapshot["gauges"], snapshot["counters"]
    tier_counts = {tier: counters.get(f"mapping.tier.{tier}", 0.0)
                   for tier in TIERS}
    decision_hits = gauges.get("mapping.decision_cache.hits", 0.0)
    tier_counts["scored"] = decision_hits + gauges.get(
        "mapping.decision_cache.misses", 0.0)
    tier_total = sum(tier_counts.values())
    counts = totals(result)
    transport = layer("transport")
    encode, decode = layer("codec.encode"), layer("codec.decode")
    lookup, store = layer("cache.lookup"), layer("cache.store")
    recursive = layer("recursive")
    session_us = np.asarray(session_s) * 1e6
    metrics = {
        "discovery.calls": layer("discovery")["calls"],
        "discovery.s": layer("discovery")["s"],
        "discovery.calls_per_answer": _ratio(
            layer("discovery")["calls"], layer("mapping")["calls"]),
        "scoring.calls": layer("scoring")["calls"],
        "scoring.s": layer("scoring")["s"],
        "lb.rank_s": layer("lb.rank")["s"],
        "lb.pick_servers_s": layer("lb.pick_servers")["s"],
        "lb.overloaded_picks": counters.get("lb.overloaded_picks", 0.0),
        "mapping.answers": layer("mapping")["calls"],
        "mapping.self_s": layer("mapping")["self_s"],
        "mapping.decision_hit_ratio": _ratio(decision_hits,
                                             tier_counts["scored"]),
        "codec.encodes": encode["calls"],
        "codec.decodes": decode["calls"],
        "codec.s": encode["s"] + decode["s"],
        "codec.passes_per_query": _ratio(
            encode["calls"] + decode["calls"], transport["calls"]),
        "transport.queries": transport["calls"],
        "transport.self_s": transport["self_s"],
        "auth.calls": layer("auth")["calls"],
        "auth.self_s": layer("auth")["self_s"],
        "recursive.calls": recursive["calls"],
        "recursive.self_s": recursive["self_s"],
        "recursive.upstream_per_resolve": _ratio(transport["calls"],
                                                 recursive["calls"]),
        "stub.self_s": layer("stub")["self_s"],
        "cache.lookups": lookup["calls"],
        "cache.stores": store["calls"],
        "cache.hit_ratio": _ratio(gauges.get("ldns.cache.hits", 0.0),
                                  gauges.get("ldns.cache.lookups", 0.0)),
        "cache.expirations": gauges.get("ldns.cache.expirations", 0.0),
        "cache.s": lookup["s"] + store["s"],
        "session.calls": layer("session")["calls"],
        "session.self_s": layer("session")["self_s"],
        "session.us_p50": (float(np.percentile(session_us, 50))
                           if session_us.size else 0.0),
        "session.us_p99": (float(np.percentile(session_us, 99))
                           if session_us.size else 0.0),
        "session.failed_share": _ratio(counts["failed"],
                                       counts["sessions"]),
        "world.builds": layer("world.build")["calls"],
        "world.build_s": layer("world.build")["s"],
        "units.build_s": layer("units.build")["s"],
        "units.count": gauges.get("units.total", 0.0),
        "mapmaker.ticks": layer("mapmaker.tick")["calls"],
        "mapmaker.tick_s": layer("mapmaker.tick")["s"],
        "mapmaker.compile_s": layer("mapmaker.compile")["s"],
        "resolvers.route_s": layer("resolvers.route")["s"],
        "resolvers.pop_failovers": counters.get("resolver.pop_failovers",
                                                0.0),
        "resolvers.cold_cache_misses": counters.get(
            "resolver.cold_cache_misses", 0.0),
        "faults.step_s": layer("faults.step")["s"],
        "loadfeedback.observe_s": layer("loadfeedback.observe")["s"],
        "loadfeedback.demoted_share": gauges.get(
            "mapping.load_demoted_share", 0.0),
        "monitor.on_day_s": layer("monitor.on_day")["s"],
        "monitor.replay_s": layer("monitor.replay")["s"],
        "rum.record_s": layer("rum.record")["s"],
        "rum.beacons": len(result.rum.beacons),
        "parallel.merge_s": layer("parallel.merge")["s"],
        # The api call and the shard day loop around the layer spans.
        "rollout.glue_self_s": (layer("run")["self_s"]
                                + layer("parallel.run")["self_s"]),
    }
    for tier in TIERS:
        metrics[f"mapping.tier_share.{tier}"] = _ratio(tier_counts[tier],
                                                       tier_total)
    return metrics
