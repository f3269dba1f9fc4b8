"""The registry merge algebra (``MetricsRegistry.merge``).

The sharded engine's correctness reduces to one algebraic property:
merging per-shard registries must equal the registry of a run that saw
the union of observations.  Counters/gauges sum (or take the max, for
state replicated in every shard), histograms merge exactly through
their moment accumulators, and the edge cases -- empty registries as
identity, NaN/inf rejected at the merge door just as ``observe``
rejects them at recording time -- are pinned here.
"""

import math
import pickle

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, RegistryMark


def _union_equivalent(split_observations, merged_observations):
    """Build (merged-from-parts, observed-as-union) registry pair."""
    parts = []
    for observations in split_observations:
        registry = MetricsRegistry()
        for name, value, weight in observations:
            registry.histogram(name).observe(value, weight)
        parts.append(registry)
    merged = MetricsRegistry()
    for part in parts:
        merged.merge(part)
    union = MetricsRegistry()
    for name, value, weight in merged_observations:
        union.histogram(name).observe(value, weight)
    return merged, union


class TestScalarMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("events").inc(3)
        b.counter("events").inc(4)
        b.counter("only_b").inc(2)
        merged = MetricsRegistry().merge(a).merge(b)
        assert merged.value("events") == 7.0
        assert merged.value("only_b") == 2.0

    def test_gauges_sum_by_default(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("load").set(1.5)
        b.gauge("load").set(2.25)
        merged = MetricsRegistry().merge(a).merge(b)
        assert merged.value("load") == 3.75

    def test_max_mode_for_replicated_state(self):
        """Replicated gauges (map version, roll-out day) must not
        multiply-count across shards."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("map.version", merge="max").set(7)
        b.gauge("map.version", merge="max").set(7)
        a.counter("maps.published", merge="max").inc(3)
        b.counter("maps.published", merge="max").inc(3)
        merged = MetricsRegistry().merge(a).merge(b)
        assert merged.value("map.version") == 7.0
        assert merged.value("maps.published") == 3.0

    def test_merge_mode_travels_with_source(self):
        """A fresh merge target needs no up-front declarations: the
        mode rides in on the source instruments."""
        a = MetricsRegistry()
        a.gauge("replicated", merge="max").set(5)
        merged = MetricsRegistry().merge(a)
        assert merged.gauge("replicated").merge == "max"

    def test_unknown_merge_mode_rejected(self):
        with pytest.raises(ValueError, match="merge mode"):
            MetricsRegistry().gauge("bad", merge="average")

    def test_equals_union_registry(self):
        """The headline property: shard-merged == union-observed."""
        shards = [MetricsRegistry() for _ in range(3)]
        for index, registry in enumerate(shards):
            registry.counter("sessions").inc(10 * (index + 1))
            registry.gauge("rollout.day", merge="max").set(13)
            for value in range(index + 2):
                registry.histogram("latency").observe(value + 0.5,
                                                      weight=2.0)
        merged = MetricsRegistry()
        for registry in shards:
            merged.merge(registry)

        union = MetricsRegistry()
        union.counter("sessions").inc(60)
        union.gauge("rollout.day", merge="max").set(13)
        for index in range(3):
            for value in range(index + 2):
                union.histogram("latency").observe(value + 0.5,
                                                   weight=2.0)
        assert merged.snapshot() == union.snapshot()


class TestHistogramMerge:
    def test_moments_add_exactly(self):
        a = Histogram("h")
        b = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            a.observe(value, weight=2.0)
        for value in (10.0, 20.0):
            b.observe(value, weight=0.5)
        a.merge(b)
        assert a.count == 5
        assert a.weight_total == 7.0
        assert a.total == pytest.approx(2.0 * 6.0 + 0.5 * 30.0)

    def test_merge_equals_union_quantiles(self):
        merged, union = _union_equivalent(
            split_observations=[
                [("h", float(v), 1.0) for v in range(50)],
                [("h", float(v), 3.0) for v in range(50, 90)],
            ],
            merged_observations=(
                [("h", float(v), 1.0) for v in range(50)]
                + [("h", float(v), 3.0) for v in range(50, 90)]),
        )
        assert merged.snapshot() == union.snapshot()

    def test_merge_compacts_past_max_samples(self):
        a = Histogram("h", max_samples=8)
        b = Histogram("h", max_samples=8)
        for value in range(8):
            a.observe(float(value))
            b.observe(float(value) + 0.25)
        a.merge(b)
        assert len(a._values) <= a.max_samples
        assert a.count == 16
        assert a.weight_total == 16.0
        # The weighted mean survives compaction exactly.
        assert a.mean == pytest.approx((sum(range(8)) * 2 + 8 * 0.25) / 16)

    def test_nonfinite_accumulators_rejected(self):
        poisoned = Histogram("h")
        poisoned.total = float("nan")
        target = Histogram("h")
        target.observe(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            target.merge(poisoned)
        assert target.count == 1  # untouched by the failed merge

    def test_inf_weight_total_rejected(self):
        poisoned = Histogram("h")
        poisoned.weight_total = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            Histogram("h").merge(poisoned)

    def test_nan_sample_rejected_before_any_mutation(self):
        poisoned = Histogram("h")
        poisoned.observe(1.0)
        poisoned._values[0] = float("nan")  # bypasses observe's guard
        target = Histogram("h")
        with pytest.raises(ValueError, match="non-finite sample"):
            target.merge(poisoned)
        assert target.count == 0

    def test_negative_weight_total_rejected(self):
        poisoned = Histogram("h")
        poisoned.weight_total = -1.0
        with pytest.raises(ValueError, match="negative"):
            Histogram("h").merge(poisoned)


class TestIdentityAndClone:
    def test_empty_registry_is_merge_identity(self):
        populated = MetricsRegistry()
        populated.counter("c").inc(5)
        populated.gauge("g", merge="max").set(2)
        populated.histogram("h").observe(1.0, 2.0)
        before = populated.to_json()
        populated.merge(MetricsRegistry())
        assert populated.to_json() == before

    def test_merge_into_empty_copies_other(self):
        source = MetricsRegistry()
        source.counter("c").inc(5)
        source.histogram("h").observe(3.0)
        merged = MetricsRegistry().merge(source)
        assert merged.to_json() == source.to_json()

    def test_empty_merge_empty_is_empty(self):
        merged = MetricsRegistry().merge(MetricsRegistry())
        assert merged.snapshot() == {"counters": {}, "gauges": {},
                                     "histograms": {}}

    def test_pickle_roundtrip_drops_collectors(self):
        registry = MetricsRegistry()
        registry.counter("c", merge="max").inc(4)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0, 3.0)
        registry.register_collector(lambda reg: None)
        registry.collect()
        thawed = pickle.loads(pickle.dumps(registry))
        assert thawed.to_json() == registry.to_json()
        assert thawed._collectors == []
        assert thawed.counter("c").merge == "max"


def _copy(registry: MetricsRegistry) -> MetricsRegistry:
    """An independent deep copy (collectors dropped, as in transport)."""
    return pickle.loads(pickle.dumps(registry))


def _state(registry: MetricsRegistry):
    """Every instrument's full state, sample lists included."""
    return (
        {n: (c.help, c.merge, c.value)
         for n, c in registry._counters.items()},
        {n: (g.help, g.merge, g.value)
         for n, g in registry._gauges.items()},
        {n: (h.help, h.max_samples, h.count, h.total, h.weight_total,
             list(h._values), list(h._weights))
         for n, h in registry._histograms.items()})


class TestRegistryMark:
    """``MetricsRegistry.mark`` records a registry by reference; the
    sharded engine ships one mark per day alongside the final registry
    and rebuilds each day's registry for the monitor replay."""

    def test_rebuild_survives_a_later_compaction(self):
        registry = MetricsRegistry()
        registry.counter("c", merge="max").inc(2)
        hist = registry.histogram("h", "help", max_samples=4)
        for value in (5.0, 1.0, 3.0):
            hist.observe(value, 2.0)
        expected = _copy(registry)
        mark = registry.mark()
        marked_list = hist._values
        for value in (9.0, 7.0, 2.0, 8.0):
            hist.observe(value)
        registry.counter("c").inc(5)
        assert hist._values is not marked_list  # compacted since
        rebuilt = mark.rebuild()
        assert _state(rebuilt) == _state(expected)
        assert rebuilt.to_json() == expected.to_json()

    def test_rebuild_is_independent_of_the_source(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        expected = _copy(registry)
        mark = registry.mark()
        mark.rebuild().histogram("h").observe(99.0)
        registry.histogram("h").observe(42.0)
        assert _state(mark.rebuild()) == _state(expected)

    def test_instruments_created_after_the_mark_are_absent(self):
        registry = MetricsRegistry()
        registry.counter("before").inc()
        mark = registry.mark()
        registry.counter("after").inc()
        registry.gauge("late").set(3.0)
        registry.histogram("later").observe(1.0)
        snapshot = mark.rebuild().snapshot()
        assert snapshot == {"counters": {"before": 1.0}, "gauges": {},
                            "histograms": {}}

    def test_collector_gauges_are_captured_not_the_collector(self):
        registry = MetricsRegistry()
        pulse = {"beats": 0}

        def collector(reg):
            pulse["beats"] += 1
            reg.gauge("live").set(pulse["beats"])

        registry.register_collector(collector)
        mark = registry.mark()
        beats_at_mark = pulse["beats"]
        assert beats_at_mark == 1
        rebuilt = mark.rebuild()
        assert rebuilt.value("live") == beats_at_mark
        assert rebuilt._collectors == []
        rebuilt.collect()
        assert pulse["beats"] == beats_at_mark

    def test_pickled_marks_share_the_final_sample_list(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rtt")
        marks = []
        for day in range(14):
            for index in range(200):
                hist.observe(float(day * 200 + index), 1.0 + index % 3)
            registry.counter("sessions").inc(200)
            marks.append(registry.mark())
        alone = len(pickle.dumps(registry))
        both = pickle.dumps((registry, marks))
        assert len(both) < 1.2 * alone
        final, thawed = pickle.loads(both)
        for mark in thawed:
            assert isinstance(mark, RegistryMark)
            entry = mark._histograms["rtt"]
            assert entry[-2] is final._histograms["rtt"]._values
            assert entry[-1] is final._histograms["rtt"]._weights
        for day, mark in enumerate(thawed):
            rebuilt = mark.rebuild()
            assert rebuilt.value("sessions") == 200.0 * (day + 1)
            assert rebuilt._histograms["rtt"].count == 200 * (day + 1)
        assert _state(thawed[-1].rebuild()) == _state(final)

