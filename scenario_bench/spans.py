"""In-memory spans around calls into each layer's public functions.

The program is not changed: :func:`traced` swaps each function or
method named in :data:`LAYER_CALLS` for a wrapper that records a span
(name, start, end, parent) and restores the originals on exit.  Spans
are kept in flat arrays while the run goes and written out by
:meth:`SpanRecorder.save` when it ends.

A span's *self* time is its duration minus the time its child spans
cover.  A layer's inclusive time counts only its outermost spans, so a
layer that re-enters itself (a resolver hop inside a resolver hop) is
not counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (layer, module, qualified name) of every call the traced run
#: wraps.  A module-level function is also replaced wherever another
#: ``repro`` module imported it by name.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("session", "repro.simulation.session", "simulate_session"),
    ("stub", "repro.dnssrv.stub", "StubResolver.resolve"),
    ("recursive", "repro.dnssrv.recursive", "RecursiveResolver.resolve"),
    ("cache.lookup", "repro.dnssrv.cache", "EcsAwareCache.lookup"),
    ("cache.store", "repro.dnssrv.cache", "EcsAwareCache.store"),
    ("transport", "repro.dnssrv.transport", "Network.query"),
    ("codec.encode", "repro.dnsproto.message", "Message.encode"),
    ("codec.decode", "repro.dnsproto.message", "Message.decode"),
    ("auth", "repro.dnssrv.authoritative",
     "AuthoritativeServer.handle_query"),
    ("mapping", "repro.core.system", "MappingSystem.answer"),
    ("discovery", "repro.core.discovery", "CandidateIndex.candidates"),
    ("scoring", "repro.core.scoring", "Scorer.score"),
    ("scoring", "repro.core.scoring", "Scorer.score_targets"),
    ("lb.rank", "repro.core.loadbalancer",
     "GlobalLoadBalancer.rank_clusters"),
    ("lb.pick_servers", "repro.core.loadbalancer",
     "LocalLoadBalancer.pick_servers"),
    ("mapmaker.tick", "repro.core.mapmaker.service",
     "MapPublicationService.tick"),
    ("mapmaker.compile", "repro.core.mapmaker.maker", "compile_entries"),
    ("resolvers.route", "repro.topology.resolvers", "ResolverFleets.route"),
    ("loadfeedback.observe", "repro.core.loadfeedback",
     "ClusterLoadTracker.observe_day"),
    ("faults.step", "repro.faults.injector", "FaultInjector.step"),
    ("monitor.on_day", "repro.obs.monitor", "RolloutMonitor.on_day"),
    ("monitor.replay", "repro.parallel.engine", "_replay_monitor"),
    ("rum.record", "repro.measurement.rum", "RumCollector.record"),
    ("world.build", "repro.simulation.world", "_build_world"),
    ("units.build", "repro.core.units.routing",
     "RoutingAwareUnitBuilder.build"),
    ("parallel.run", "repro.parallel.engine", "run_sharded"),
    ("parallel.merge", "repro.parallel.merge", "merge_rum"),
    ("parallel.merge", "repro.parallel.merge", "merge_query_logs"),
    ("parallel.merge", "repro.parallel.merge", "merge_registries"),
    ("parallel.merge", "repro.parallel.merge", "merge_traces"),
    ("parallel.merge", "repro.parallel.merge", "merge_profiles"),
    ("parallel.merge", "repro.parallel.merge", "sum_day_dicts"),
)

ROOT = "run"


class SpanRecorder:
    """Flat, append-only span storage plus per-layer running totals."""

    def __init__(self) -> None:
        self.layers: List[str] = [ROOT]
        self._layer_ids: Dict[str, int] = {ROOT: 0}
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        # [span index, child seconds, layer id, depth, start]
        self._stack: List[List] = []
        self._depth: Dict[int, int] = {}  # layer id -> open spans
        self.inclusive_s: Dict[str, float] = {}

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _enter(self, layer_id: int) -> List:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        depth = self._depth.get(layer_id, 0)
        self._depth[layer_id] = depth + 1
        frame = [index, 0.0, layer_id, depth, 0.0]
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _leave(self, frame: List) -> None:
        ended = time.perf_counter()
        index, child_s, layer_id, depth, began = frame
        self._stack.pop()
        self._depth[layer_id] = depth
        duration = ended - began
        self.start[index] = began
        self.end[index] = ended
        self.self_s[index] = duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        if depth == 0:
            layer = self.layers[layer_id]
            self.inclusive_s[layer] = (
                self.inclusive_s.get(layer, 0.0) + duration)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` recording one span of ``layer`` per call."""
        layer_id = self._layer_id(layer)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- summaries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, summed self time, inclusive time."""
        ids = np.frombuffer(self.layer, dtype=np.uint16)
        selfs = np.frombuffer(self.self_s, dtype=np.float64)
        calls = np.bincount(ids, minlength=len(self.layers))
        self_sum = np.bincount(ids, weights=selfs,
                               minlength=len(self.layers))
        return {layer: {"calls": int(calls[i]),
                        "self_s": float(self_sum[i]),
                        "s": self.inclusive_s.get(layer, 0.0)}
                for i, layer in enumerate(self.layers)}

    def durations(self, layer: str) -> np.ndarray:
        """Wall seconds of every span of one layer, in start order."""
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            return np.zeros(0)
        ids = np.frombuffer(self.layer, dtype=np.uint16)
        mask = ids == layer_id
        return (np.frombuffer(self.end, dtype=np.float64)[mask]
                - np.frombuffer(self.start, dtype=np.float64)[mask])

    def save(self, path: str) -> None:
        """Write every span (layer, parent, start, end, self) as .npz."""
        np.savez(path,
                 layers=np.array(self.layers),
                 layer=np.frombuffer(self.layer, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 self_s=np.frombuffer(self.self_s, dtype=np.float64))


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw attribute) for one entry of the table."""
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = (owner.__dict__[attribute] if isinstance(owner, type)
           else getattr(owner, attribute))
    return owner, attribute, raw


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper in :data:`LAYER_CALLS`; restore on exit."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for layer, module_name, qualname in LAYER_CALLS:
            owner, attribute, raw = _resolve(module_name, qualname)
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(recorder.wrap(layer, raw.__func__))
                else:
                    patched = recorder.wrap(layer, raw)
                restore.append((owner, attribute, raw))
                setattr(owner, attribute, patched)
                continue
            patched = recorder.wrap(layer, raw)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is raw):
                    restore.append((module, attribute, raw))
                    setattr(module, attribute, patched)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)
