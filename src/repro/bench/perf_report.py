"""Perf-trajectory harness: time the hot paths, write ``BENCH_*.json``.

Run as::

    PYTHONPATH=src python -m repro.bench.perf_report [--scales tiny,small]
                                                     [--out BENCH_PR2.json]

Output schema ``bench/v3`` (v2 plus the host fingerprint and the
per-phase breakdown from the engine self-profiler)::

    {"schema": "bench/v3",
     "benches":  {bench_name: {"wall_s": ..., "calls": ..., "scale": ...}},
     "speedups": {bench_base: scalar_wall / batch_wall},
     "host":     {"cpus": ..., "platform": ..., "python": ...},
     "phases":   {"<scale>;<bench>": {"calls", "work", "wall_s",
                                      "self_wall_s"}},
     "metrics":  <registry snapshot: bench.runs counter, wall_s histogram>,
     "traces":   [per-bench span trees with wall_s/calls attributes]}

``calls`` is the number of elementary operations the bench performed
(scalar-equivalent pair evaluations, blocks assigned, targets
scored...), so per-call cost is comparable across scales and PRs even
when absolute workloads change.

Paired benches -- ``X_scalar`` (the per-pair reference implementation,
the pre-vectorization hot path) and ``X_batch`` (the
:mod:`repro.net.batch` kernels) -- run the *same workload*, so their
``wall_s`` ratio is the speedup vectorization delivers (exported in
``speedups``), and the ``_scalar`` rows double as the "before" numbers
for future PRs.  Two pairs time redundant work removed rather than
vectorized: ``candidates`` (a ring walk per call vs the per-target
memo) and ``dns_hop`` (four codec passes per exchange vs two).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cdn.deployments import build_deployments
from repro.core.discovery import CandidateIndex
from repro.core.measurement import (
    MeasurementService,
    TargetGrid,
    build_ping_targets,
    nearest_target_id,
)
from repro.core.policies import MapTarget
from repro.core.scoring import Scorer
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import Message, ResourceRecord, make_query
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType
from repro.dnssrv.authoritative import AuthoritativeServer, StaticZone
from repro.experiments import fig25
from repro.experiments.scales import get_scale
from repro.net import batch
from repro.net.geometry import great_circle_miles
from repro.net.ipv4 import parse_ipv4, prefix_of
from repro.net.latency import LatencyModel
from repro.obs import Observability
from repro.obs.profile import PhaseProfiler, flatten_phases
from repro.topology.internet import Internet, InternetConfig, build_internet

BenchResult = Dict[str, float]

SCHEMA = "bench/v3"


def host_fingerprint() -> Dict:
    """Where these numbers were measured (wall-clock is host-relative).

    The canonical fingerprint every ``BENCH_*.json`` and profile
    document embeds; :mod:`repro.bench.regress` warns when adjacent
    trajectory entries were recorded on different hosts.
    """
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpus": os.cpu_count(),
        "cpus_available": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _timed(fn: Callable[[], int]) -> Tuple[float, int]:
    start = time.perf_counter()
    calls = fn()
    return time.perf_counter() - start, calls


class PerfReport:
    def __init__(self, obs: Optional[Observability] = None) -> None:
        self.results: Dict[str, BenchResult] = {}
        self.obs = obs if obs is not None else Observability()
        # Every bench also records as a phase (scale -> bench name), so
        # the payload carries the same per-phase breakdown shape the
        # engine profiler exports and the regress gate rates.
        self.profiler = PhaseProfiler()

    def bench(self, name: str, scale: str, fn: Callable[[], int]) -> None:
        with self.obs.tracer.trace("bench", bench=name,
                                   scale=scale) as span:
            with self.profiler.phase(scale), \
                    self.profiler.phase(name):
                wall, calls = _timed(fn)
                self.profiler.count("calls", calls)
            span.set(wall_s=wall, calls=calls)
        self.obs.registry.counter("bench.runs").inc()
        self.obs.registry.histogram("bench.wall_s").observe(wall)
        # Bench names are namespaced by scale so one report can hold
        # the same bench at several scales.
        self.results[f"{scale}/{name}"] = {
            "wall_s": round(wall, 6), "calls": calls, "scale": scale}
        print(f"  {name:44s} {wall:9.3f}s  ({calls:,} calls)",
              file=sys.stderr)

    def speedups(self) -> Dict[str, float]:
        """``scalar/batch`` wall ratio per paired bench base name."""
        out: Dict[str, float] = {}
        for name in sorted(self.results):
            if not name.endswith("_batch"):
                continue
            scalar = self.results.get(name[:-6] + "_scalar")
            if scalar is None:
                continue
            out[name[:-6]] = round(
                scalar["wall_s"] / max(self.results[name]["wall_s"],
                                       1e-9), 3)
        return out


def build_payload(report: PerfReport) -> Dict:
    """The full ``bench/v3`` document for one harness run."""
    return {
        "schema": SCHEMA,
        "benches": report.results,
        "speedups": report.speedups(),
        "host": host_fingerprint(),
        "phases": flatten_phases(report.profiler.root),
        "metrics": report.obs.registry.snapshot(),
        "traces": report.obs.tracer.export(),
    }


def write_report(report: PerfReport, path: str) -> Dict:
    payload = build_payload(report)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _fig25_inputs(internet: Internet, spec):
    universe = build_deployments(
        spec.universe_size, internet.geodb, seed=31,
        host_ases=list(internet.ases.values()))
    clusters = list(universe.clusters.values())
    targets, _ = build_ping_targets(internet, spec.n_targets)
    return clusters, targets


def run_scale(report: PerfReport, scale: str) -> None:
    print(f"[{scale}]", file=sys.stderr)
    spec = get_scale(scale)
    model = LatencyModel()

    # -- world build (topology generation + ping-target selection) -----
    holder: List[Internet] = []

    def _build() -> int:
        holder.append(build_internet(spec.internet, seed=2014))
        return len(holder[-1].blocks)

    report.bench("world_build", scale, _build)
    internet = holder[-1]

    clusters, targets = _fig25_inputs(internet, spec.fig25)
    columns = internet.block_columns()

    # -- fig25 RTT matrix: scalar reference vs shared batch kernel -----
    n_pairs = len(clusters) * len(targets)

    def _rtt_scalar() -> int:
        for cluster in clusters:
            for target in targets:
                model.base_rtt_ms(cluster.geo, cluster.asn,
                                  target.geo, target.asn)
        return n_pairs

    def _rtt_batch() -> int:
        lat_c, lon_c = batch.geo_columns([c.geo for c in clusters])
        lat_t, lon_t = batch.geo_columns([t.geo for t in targets])
        batch.rtt_matrix(lat_c, lon_c, [c.asn for c in clusters],
                         lat_t, lon_t, [t.asn for t in targets],
                         params=model.params)
        return n_pairs

    report.bench("fig25_rtt_matrix_scalar", scale, _rtt_scalar)
    report.bench("fig25_rtt_matrix_batch", scale, _rtt_batch)

    # -- block -> ping-target assignment -------------------------------
    n_blocks = len(internet.blocks)
    grid = TargetGrid(targets)

    def _assign_scalar() -> int:
        for block in internet.blocks:
            nearest_target_id(block.geo, block.asn, targets)
        return n_blocks

    def _assign_batch() -> int:
        grid.nearest_bulk(columns.lat, columns.lon, columns.asn)
        return n_blocks

    report.bench("ping_target_assignment_scalar", scale, _assign_scalar)
    report.bench("ping_target_assignment_batch", scale, _assign_batch)

    # -- batch scoring (cluster x target score matrix) ------------------
    measurement = MeasurementService(internet.geodb, model)
    scorer = Scorer(measurement)
    map_targets = [MapTarget(geo=t.geo, asn=t.asn) for t in targets]
    n_scores = len(clusters) * len(map_targets)

    def _score_scalar() -> int:
        for cluster in clusters:
            for target in map_targets:
                scorer.score(cluster, target)
        return n_scores

    def _score_batch() -> int:
        scorer.score_targets(clusters, map_targets)
        return n_scores

    report.bench("score_targets_scalar", scale, _score_scalar)
    measurement.flush()
    report.bench("score_targets_batch", scale, _score_batch)

    # -- end-to-end fig25 experiment ------------------------------------
    def _fig25_run() -> int:
        fig25.run(scale)
        return spec.fig25.n_client_samples * spec.fig25.n_runs

    report.bench("fig25_experiment", scale, _fig25_run)


def run_kernel_micro(report: PerfReport, n_a: int = 400,
                     n_b: int = 2000) -> None:
    """Kernel microbenchmarks on synthetic point sets (scale-free).

    ``n_a``/``n_b`` size the point sets; tests shrink them for speed.
    """
    print("[micro]", file=sys.stderr)
    rng = np.random.default_rng(7)
    lat_a = rng.uniform(-60, 70, n_a)
    lon_a = rng.uniform(-180, 180, n_a)
    lat_b = rng.uniform(-60, 70, n_b)
    lon_b = rng.uniform(-180, 180, n_b)
    asn_a = rng.integers(100, 2400, n_a)
    asn_b = rng.integers(100, 2400, n_b)
    from repro.net.geometry import GeoPoint
    points_a = [GeoPoint(lat, lon) for lat, lon in zip(lat_a, lon_a)]
    points_b = [GeoPoint(lat, lon) for lat, lon in zip(lat_b, lon_b)]
    n_pairs = n_a * n_b

    def _hav_scalar() -> int:
        for pa in points_a:
            for pb in points_b:
                great_circle_miles(pa, pb)
        return n_pairs

    def _hav_batch() -> int:
        batch.haversine_matrix_miles(lat_a, lon_a, lat_b, lon_b)
        return n_pairs

    report.bench("haversine_matrix_scalar", "micro", _hav_scalar)
    report.bench("haversine_matrix_batch", "micro", _hav_batch)

    model = LatencyModel()

    def _peer_scalar() -> int:
        for a in asn_a:
            for b in asn_b:
                model.peering_penalty_ms(int(a), int(b))
        return n_pairs

    def _peer_batch() -> int:
        batch.peering_penalty_matrix(asn_a, asn_b, model.params)
        return n_pairs

    report.bench("peering_penalty_scalar", "micro", _peer_scalar)
    report.bench("peering_penalty_batch", "micro", _peer_batch)

    _candidate_and_hop_micro(report, rng, n_b)


def _candidate_and_hop_micro(report: PerfReport, rng, n_calls: int) -> None:
    """Candidate discovery and the DNS hop, each as a before/after pair.

    ``candidates``: a demand-weighted stream of ``n_calls`` block
    targets of the tiny world, about 15 calls per distinct target as
    in the scenario benchmark's ``eu_day``, answered by the ring walk
    on every call (``_scalar``) or through the per-target memo
    (``_batch``).
    ``dns_hop``: ``n_calls`` ECS A exchanges with an authoritative,
    paying four codec passes each as a decoding transport would
    (``_scalar``) or the two encodes of the in-memory hop (``_batch``).
    """
    internet = build_internet(InternetConfig.tiny(), seed=2014)
    plan = build_deployments(40, internet.geodb, seed=2015,
                             host_ases=list(internet.ases.values()))
    heavy = sorted(internet.blocks, key=lambda b: -b.demand)
    heavy = heavy[:max(1, n_calls // 15)]
    demand = np.array([block.demand for block in heavy])
    picks = rng.choice(len(heavy), size=n_calls, p=demand / demand.sum())
    stream = [MapTarget(geo=heavy[i].geo, asn=heavy[i].asn)
              for i in picks]

    def _walk_scalar() -> int:
        index = CandidateIndex(plan)
        for target in stream:
            index._discover(target)
        return n_calls

    def _walk_batch() -> int:
        index = CandidateIndex(plan)
        for target in stream:
            index.candidates(target)
        return n_calls

    report.bench("candidates_scalar", "micro", _walk_scalar)
    report.bench("candidates_batch", "micro", _walk_batch)

    server = AuthoritativeServer(parse_ipv4("10.0.0.53"))
    zone = StaticZone()
    for last in (1, 2):
        zone.add(ResourceRecord("a1.w10.cdn.example", QType.A, 20,
                                ARdata(parse_ipv4(f"10.1.0.{last}"))))
    server.attach_zone("cdn.example", zone)
    client = parse_ipv4("10.2.3.4")
    query = make_query("a1.w10.cdn.example", msg_id=1,
                       ecs=ClientSubnetOption(prefix_of(client, 24)))

    def _hop_scalar() -> int:
        for _ in range(n_calls):
            Message.decode(server.handle_wire(query.encode(), client, 0.0))
        return n_calls

    def _hop_batch() -> int:
        for _ in range(n_calls):
            query.encode()
            server.handle_query(query, client, 0.0)
        return n_calls

    report.bench("dns_hop_scalar", "micro", _hop_scalar)
    report.bench("dns_hop_batch", "micro", _hop_batch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scales", default="tiny,small",
                        help="comma-separated scale names")
    parser.add_argument("--out", default="BENCH_PR2.json",
                        help="output JSON path")
    parser.add_argument("--skip-micro", action="store_true",
                        help="skip the kernel microbenchmarks")
    args = parser.parse_args(argv)

    report = PerfReport()
    if not args.skip_micro:
        run_kernel_micro(report)
    for scale in [s.strip() for s in args.scales.split(",") if s.strip()]:
        run_scale(report, scale)

    payload = write_report(report, args.out)
    print(f"wrote {args.out} ({len(report.results)} benches)",
          file=sys.stderr)

    # Speedup summary for the paired scalar/batch benches.
    for base, speedup in payload["speedups"].items():
        print(f"  {base:48s} {speedup:8.1f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
