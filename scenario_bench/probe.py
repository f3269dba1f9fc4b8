"""Host-speed probe: rescales timings to a reference host speed.

The CPUs of a shared host slow down and speed up as neighbours load
them: on the 2-CPU x86-64 host this benchmark was written on, the same
run swung by up to 1.5x within a minute, with CPU time moving with
wall time.  While a measurement goes, a ``SIGALRM`` handler times a
fixed object-heavy loop every :data:`INTERVAL_S`.  The loop's time
relative to :data:`REFERENCE_S` is how much slower the host ran than
the reference during that stretch, and dividing a timing by it gives
the timing at reference speed.

A pooled run keeps both CPUs busy with shard workers, where a probe in
this process would time its own contention; there the engine's shard
worker is wrapped so that each worker process samples its own CPU and
leaves the samples in a spool directory for :meth:`pool_slowdown`.

The probe touches no simulator state and draws from no simulator RNG,
so outputs stay byte-identical (the digest checks confirm it); it adds
about 1% to every timing, the same on every commit.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from pathlib import Path
from typing import List, Optional, Tuple

INTERVAL_S = 0.05
#: The loop's typical time on the host the benchmark was written on.
#: It fixes only the scale of the rescaled figures.
REFERENCE_S = 7.5e-4
_STEPS = 600
_TABLE = 1 << 16


class SpeedProbe:
    """Context manager sampling host speed for the duration of a
    measurement; :meth:`slowdown` reads it for one timed interval."""

    def __init__(self, spool: Path) -> None:
        self._table = [{"a": i, "b": str(i)} for i in range(_TABLE)]
        self.samples: List[Tuple[float, float]] = []  # (at, seconds)
        self.spool = spool
        self._previous = None
        self._engine = None

    def _sample(self, signum=None, frame=None) -> None:
        table, state, total = self._table, 12345, 0
        began = time.perf_counter()
        for _ in range(_STEPS):
            state = (state * 1103515245 + 12345) & (_TABLE - 1)
            entry = table[state]
            total += entry["a"] + len(entry["b"])
        ended = time.perf_counter()
        self.samples.append((ended, ended - began))

    def __enter__(self) -> "SpeedProbe":
        global _ACTIVE, _PARENT, _SHARD_WORKER
        from repro.parallel import engine

        self.spool.mkdir(parents=True, exist_ok=True)
        _ACTIVE, _PARENT = self, os.getpid()
        _SHARD_WORKER, self._engine = engine._shard_worker, engine
        engine._shard_worker = _probed_shard_worker
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._engine._shard_worker = _SHARD_WORKER
        _ACTIVE = None

    def slowdown(self, began: float, ended: float) -> float:
        """Host time per reference second over ``[began, ended]``
        (``time.perf_counter`` readings)."""
        inside = [seconds for at, seconds in self.samples
                  if began <= at <= ended]
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        return statistics.mean(inside) / REFERENCE_S

    def pool_slowdown(self) -> Optional[float]:
        """Host time per reference second in the pool workers since the
        last call, or None when no worker left samples."""
        inside: List[float] = []
        for path in sorted(self.spool.glob("*.json")):
            inside += json.loads(path.read_text())
            path.unlink()
        return statistics.mean(inside) / REFERENCE_S if inside else None


# Module-level because the pool pickles its worker function by name: a
# forked worker process reaches the probe and the engine's own worker
# through these copies of the parent's globals.
_ACTIVE: Optional[SpeedProbe] = None
_PARENT: Optional[int] = None
_SHARD_WORKER = None


def _probed_shard_worker(payload):
    """The engine's shard worker, probed when it runs in a forked pool
    process (which inherits the handler but not the timer)."""
    probe = _ACTIVE
    if probe is None or os.getpid() == _PARENT:
        return _SHARD_WORKER(payload)
    probe.samples = []
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        return _SHARD_WORKER(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        name = f"{os.getpid()}-{time.perf_counter_ns()}.json"
        (probe.spool / name).write_text(
            json.dumps([seconds for _, seconds in probe.samples]))
