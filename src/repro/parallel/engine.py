"""The sharded roll-out engine: shard workers, pool, merge, replay.

Execution model
---------------

``run_sharded(spec, workers=N, n_shards=K)`` splits the *client
population* of one :class:`~repro.api.ScenarioSpec` into ``K`` closed
sub-worlds (:mod:`repro.parallel.plan`) and executes them on up to
``N`` processes.  Each shard worker

1. rebuilds the **full** world from the spec through
   :func:`repro.api._world_for`, as the serial engine does -- worlds
   are pure functions of their seeds, so infrastructure (clusters, name
   servers, LDNS fleet, fault schedule, control plane) is replicated
   identically in every shard;
2. runs the one day loop, :func:`repro.simulation.rollout.run_days`,
   for its shard of the plan: the timeline (fault steps, control-plane
   ticks, ECS tranche flips) is the same everywhere, while sessions
   come only from the shard's own blocks, drawn from a shard-local RNG
   seeded by ``f"{seed}:shard:{index}"`` and paced by the shard's
   largest-remainder quota for each day;
3. returns its registry, result (beacons, query log, per-day tallies),
   traces, and -- when a monitor is attached -- one registry clone per
   simulated day.

The parent merges everything in fixed shard order
(:mod:`repro.parallel.merge`) and *replays the monitor*: for each day
it calls :meth:`~repro.obs.monitor.RolloutMonitor.observe` with the
merged clones of that day and the merged result, so alert rules
evaluate the same global per-day signals a serial monitored run sees.

Determinism contract
--------------------

``workers`` only sizes the process pool; the shard plan (and hence
every random draw) is fixed by ``n_shards``.  ``workers=1`` executes
the same shards serially in-process, so reports are **byte-identical**
across worker counts.  The serial engine (``workers=None`` at the API
layer) is the one-shard plan drawn from the legacy global RNG, the
reference for the golden fixtures; the sharded engine is its own
determinism domain.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import DISABLED_PROFILER, PhaseProfiler
from repro.parallel.merge import (
    merge_profiles,
    merge_query_logs,
    merge_registries,
    merge_rum,
    merge_traces,
    sum_day_dicts,
)
from repro.parallel.plan import DEFAULT_SHARDS, plan_shards
from repro.simulation.rollout import RolloutResult, run_days

#: The per-day tallies that sum across shards.
_PER_DAY_TALLIES = ("sessions_per_day", "requests_per_day",
                    "failed_sessions_per_day",
                    "degraded_sessions_per_day",
                    "catchment_shifted_per_day")


@dataclass
class ShardOutput:
    """Everything one shard worker ships back to the parent."""

    shard: int
    registry: MetricsRegistry
    result: RolloutResult
    traces: List[Dict]
    trace_counts: Dict[str, int]
    day_registries: Dict[int, MetricsRegistry] = field(
        default_factory=dict)
    profiler: Optional[PhaseProfiler] = None
    """The shard's engine phase profile, when ``spec.profile`` opted
    in (phase trees pickle across the process boundary)."""


def _shard_worker(payload: Tuple) -> ShardOutput:
    """Run one shard end to end (executes inside a pool process):
    rebuild the world, drive :func:`repro.simulation.rollout.run_days`
    over this shard's blocks from the shard-local RNG, and package the
    outputs."""
    (spec, shard, n_shards, capture_days, keep_beacons,
     pair_tracking) = payload
    # Imported here, not at module top: ``repro.api`` reaches into
    # this package (lazily), and function-scope imports keep the edge
    # acyclic in both directions.
    from repro.api import _world_for
    from repro.faults import FaultInjector

    profiler = (PhaseProfiler(config=spec.profile)
                if spec.profile is not None else None)
    # Each worker sees 1/n_shards of the demand, so observed load
    # scales back up by n_shards to keep the utilization signal (and
    # hence scoring penalties) aligned across worker counts.
    world = _world_for(spec, load_scale=float(n_shards),
                       profiler=profiler)
    registry = world.obs.registry
    day_registries: Dict[int, MetricsRegistry] = {}

    def on_day(day: int, world, result) -> None:
        # One instrument-only clone per day feeds the parent's monitor
        # replay; clone() runs the collectors first, so collector-backed
        # gauges hold end-of-day component state.
        day_registries[day] = registry.clone()

    # One independent RNG per shard, seeded by (seed, shard).  String
    # seeds hash through SHA-512 inside random.Random, so the stream is
    # stable across platforms and hash randomization.
    result = run_days(
        world, spec.rollout,
        rng=random.Random(f"{spec.rollout.seed}:shard:{shard}"),
        plan=plan_shards(world.internet, n_shards), shard=shard,
        injector=(FaultInjector(world, spec.faults)
                  if spec.faults else None),
        traffic=spec.traffic,
        on_day=on_day if capture_days else None,
        keep_beacons=keep_beacons, pair_tracking=pair_tracking)

    # Materialize collector gauges one last time, then detach the
    # world: only the registry's instrument state crosses the process
    # boundary (``MetricsRegistry.__getstate__`` drops collectors).
    registry.collect()
    tracer = world.obs.tracer
    return ShardOutput(
        shard=shard, registry=registry, result=result,
        traces=tracer.export(),
        trace_counts={"started": tracer.started,
                      "sampled": tracer.sampled,
                      "dropped": tracer.dropped},
        day_registries=day_registries, profiler=profiler)


# -- the merged run ----------------------------------------------------------

@dataclass
class ShardedRun:
    """A completed sharded scenario: merged outputs, replayed monitor.

    The sharded sibling of :class:`repro.api.ScenarioRun`.  There is no
    single live ``world`` (each worker's world died with its process);
    the merged registry and trace export stand in for the world-level
    observability surfaces.
    """

    spec: object
    result: object
    monitor: Optional[object]
    registry: MetricsRegistry
    traces: List[Dict]
    trace_counts: Dict[str, int]
    n_shards: int
    workers: int
    shard_sessions: List[int]
    """Total sessions simulated per shard (the load-split record)."""
    profiler: Optional[PhaseProfiler] = None
    """The merged engine phase profile (parent plan/execute/merge
    phases with every worker tree grafted under ``shard.workers``),
    when ``spec.profile`` opted in."""

    def report(self, scenario: Optional[Dict] = None) -> Dict:
        """The monitor's deterministic report document."""
        if self.monitor is None:
            raise ValueError(
                "scenario ran without a monitor (spec.monitor=False)")
        return self.monitor.report(scenario if scenario is not None
                                   else self.spec.describe())


def _validate_parallelism(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a positive integer, "
                         f"got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def run_sharded(spec=None, *, workers: int = 1,
                n_shards: int = DEFAULT_SHARDS,
                keep_beacons: bool = True,
                pair_tracking: bool = True) -> ShardedRun:
    """Execute one scenario sharded across worker processes.

    ``keep_beacons`` / ``pair_tracking`` exist for the bench harness:
    at millions of sessions per day the beacon list and pair-row log
    dominate memory and inter-process transfer without affecting the
    wall-clock being measured.  Leave both True for report-producing
    runs.
    """
    from repro.api import ScenarioSpec, _monitor_for_spec

    spec = spec or ScenarioSpec()
    workers = _validate_parallelism(workers, "workers")
    n_shards = _validate_parallelism(n_shards, "n_shards")
    if spec.policy is not None:
        raise ValueError(
            "sharded execution rebuilds the world in each worker and "
            "cannot ship a live policy object; pass policy=None (the "
            "default mapping) or run serially (workers=None)")

    profiler = (PhaseProfiler(config=spec.profile)
                if spec.profile is not None else None)
    prof = profiler if profiler is not None else DISABLED_PROFILER

    capture_days = spec.monitor
    with prof.phase("shard.plan"):
        prof.count("shards", n_shards)
        payloads = [(spec, shard, n_shards, capture_days, keep_beacons,
                     pair_tracking) for shard in range(n_shards)]
    with prof.phase("shard.execute"):
        if workers == 1:
            outputs = [_shard_worker(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(
                    max_workers=min(workers, n_shards)) as pool:
                futures = [pool.submit(_shard_worker, payload)
                           for payload in payloads]
                outputs = [future.result() for future in futures]
        # Worker trees graft in fixed shard order, so the merged
        # profile -- structure *and* float accumulation -- is
        # independent of pool scheduling.
        merge_profiles(prof, [out.profiler for out in outputs])

    # -- merge, in fixed shard order --------------------------------------
    results = [out.result for out in outputs]
    first = results[0]
    with prof.phase("shard.merge"):
        result = RolloutResult(
            config=spec.rollout,
            rum=merge_rum([r.rum for r in results]),
            query_log=merge_query_logs([r.query_log for r in results]),
            ecs_resolvers_per_day=dict(first.ecs_resolvers_per_day),
            high_expectation_countries=list(
                first.high_expectation_countries),
            median_public_distance=dict(first.median_public_distance),
            **{name: sum_day_dicts(getattr(r, name) for r in results)
               for name in _PER_DAY_TALLIES})
        registry = merge_registries([out.registry for out in outputs])
        traces = merge_traces([out.traces for out in outputs])
        trace_counts = {
            key: sum(out.trace_counts.get(key, 0) for out in outputs)
            for key in ("started", "sampled", "dropped")}

        monitor = None
        if spec.monitor:
            monitor = _monitor_for_spec(spec)
            _replay_monitor(monitor, spec, outputs, result)

    return ShardedRun(
        spec=spec, result=result, monitor=monitor, registry=registry,
        traces=traces, trace_counts=trace_counts, n_shards=n_shards,
        workers=workers,
        shard_sessions=[sum(r.sessions_per_day.values())
                        for r in results],
        profiler=profiler)


def _replay_monitor(monitor, spec, outputs: List[ShardOutput],
                    result: RolloutResult) -> None:
    """Drive the monitor over merged per-day registries.

    The serial engine observes the live world's registry after each
    day; here every shard captured a registry clone per day, so the
    replay merges the clones for day *d* (fixed shard order) and hands
    them, with the merged result, to the same
    :meth:`~repro.obs.monitor.RolloutMonitor.observe` the serial
    engine reaches through ``on_day``.
    """
    for day in range(spec.rollout.n_days):
        monitor.observe(day, merge_registries(
            [out.day_registries[day] for out in outputs]), result)
