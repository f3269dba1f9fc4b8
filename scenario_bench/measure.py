"""Time one world build or one scenario run, in this process.

:func:`run_once` wraps one :func:`repro.api.run` call with wall time
and the user and system CPU of this process and of its worker
children, checks the outputs, and returns a record.  Given a
:class:`~spans.SpanRecorder`, the call runs with spans around every
layer and the record adds the per-layer metrics.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, Optional

from outcome import (check_outputs, digest, layer_metrics, registry_of,
                     simulated, totals)
from spans import ROOT, SpanRecorder, traced


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak
    resident set (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def time_setup(settings: Dict):
    """(seconds, world) of one :func:`repro.api.build_world` call."""
    from repro.api import build_world

    began = time.perf_counter()
    world = build_world(**settings)
    return time.perf_counter() - began, world


def run_once(workload, workers: Optional[int] = None,
             recorder: Optional[SpanRecorder] = None) -> Dict:
    """Run a workload once; ``workers`` overrides its pool size (the
    sharded workload's serial twin passes 1)."""
    from repro.api import run

    if workers is None:
        workers = workload.workers
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    began = time.perf_counter()
    if recorder is None:
        outcome = run(workload.spec, workers=workers)
    else:
        with traced(recorder):
            outcome = recorder.wrap(ROOT, run)(workload.spec,
                                               workers=workers)
    wall_s = time.perf_counter() - began
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = outcome.result
    snapshot = registry_of(outcome).snapshot()
    child_cpu_s = _cpu_s(children_after) - _cpu_s(children_before)
    record = {
        "workers": workers,
        "began": began,
        "wall_s": wall_s,
        **totals(result),
        "cpu_s": _cpu_s(self_after) - _cpu_s(self_before) + child_cpu_s,
        "child_cpu_s": child_cpu_s,
        "shard_sessions": getattr(outcome, "shard_sessions", None),
        "digest": digest(result, snapshot),
        "problems": check_outputs(result, snapshot),
        "sim": simulated(result, snapshot),
    }
    if recorder is not None:
        record["spans"] = len(recorder)
        record["layers"] = layer_metrics(
            recorder.totals(), recorder.durations("session"), snapshot,
            result)
    return record
