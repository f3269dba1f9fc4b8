"""Sharded multi-process simulation with deterministic merge.

The session loop is the simulator's wall-clock ceiling: the vectorized
kernels cover mapping and scoring, but one Python process still walks
every client session of every simulated day in sequence.  This package
partitions the *client population* into closed sub-worlds (shards),
runs them across worker processes, and merges their outputs back into
one report -- byte-identical no matter how many workers ran, because
the unit of determinism is the shard plan, not the process count.

* :mod:`repro.parallel.plan` -- the deterministic prefix partitioner
  and the per-day session apportionment (the serial engine runs the
  one-shard plan, so it imports only this module).
* :mod:`repro.parallel.engine` -- the shard worker, the process pool,
  and the monitor replay over merged per-day registries.
* :mod:`repro.parallel.merge` -- the merge algebra for everything a
  shard produces (registries, RUM beacons, query logs, traces).

Entry points: ``repro.api.run(spec, workers=N)`` and the CLIs
(``python -m repro sim rollout --workers N``,
``python -m repro soak --workers N``).
"""

from repro.parallel.plan import (
    DEFAULT_SHARDS,
    ShardPlan,
    apportion,
    plan_shards,
    shard_of_prefix,
)

__all__ = [
    "DEFAULT_SHARDS",
    "ShardPlan",
    "ShardedRun",
    "apportion",
    "plan_shards",
    "run_sharded",
    "shard_of_prefix",
]


def __getattr__(name: str):
    # The engine (and its process pool) loads on first use, keeping it
    # off the serial engine's import path.
    if name in ("ShardedRun", "run_sharded"):
        from repro.parallel import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
