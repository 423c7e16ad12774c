"""Instrument semantics and the cross-process merge contract."""

from __future__ import annotations

import pickle
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_bucketing_le_semantics(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.5)   # <= 1.0
        hist.observe(1.0)   # boundary: le="1.0" bucket
        hist.observe(5.0)   # <= 10.0
        hist.observe(99.0)  # +Inf overflow
        assert hist.data().counts == (2, 1, 1)
        assert hist.count == 4
        assert hist.total == pytest.approx(105.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_rejects_relayout(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestRegistry:
    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_set_gauges_prefix(self):
        registry = MetricsRegistry()
        registry.set_gauges({"hits": 3, "misses": 1}, prefix="cache.")
        snap = registry.snapshot()
        assert snap.gauges == {"cache.hits": 3.0, "cache.misses": 1.0}

    def test_thread_safety_of_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000.0


class TestSnapshot:
    def test_picklable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.counters == snap.counters
        assert clone.histograms["h"] == snap.histograms["h"]

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(-1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        back = MetricsSnapshot.from_json(snap.to_json())
        assert back == snap

    def test_diff_subtracts_and_drops_zeros(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3.0)
        registry.counter("b").inc(1.0)
        registry.histogram("h").observe(0.01)
        before = registry.snapshot()
        registry.counter("a").inc(2.0)
        registry.histogram("h").observe(0.02)
        delta = registry.snapshot().diff(before)
        assert delta.counters == {"a": 2.0}  # b unchanged: dropped
        assert delta.histograms["h"].count == 1

    def test_empty_property(self):
        assert MetricsRegistry().snapshot().empty

    def test_mismatched_bucket_merge_raises(self):
        one = HistogramData(buckets=(1.0,), counts=(1, 0), total=0.5, count=1)
        other = HistogramData(buckets=(2.0,), counts=(1, 0), total=0.5,
                              count=1)
        with pytest.raises(ValueError):
            one.merge(other)


# -- the cross-process merge contract ----------------------------------------

observations = st.lists(
    st.floats(min_value=0.0, max_value=20.0,
              allow_nan=False, allow_infinity=False),
    max_size=30)


def _shard_registry(counter_incs, observed):
    registry = MetricsRegistry()
    for amount in counter_incs:
        registry.counter("work.items").inc(amount)
    for value in observed:
        registry.histogram("work.seconds").observe(value)
    return registry


class TestMergeAcrossWorkers:
    """Merging per-worker snapshots must equal doing the work serially —
    the property `ParallelPipelineRunner` relies on when it folds shard
    deltas back into the parent registry."""

    @given(st.lists(st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False),
                 max_size=10),
        observations), min_size=1, max_size=5))
    def test_merge_equals_serial(self, shards):
        parent = MetricsRegistry()
        serial = MetricsRegistry()
        for counter_incs, observed in shards:
            parent.merge(_shard_registry(counter_incs, observed).snapshot())
            for amount in counter_incs:
                serial.counter("work.items").inc(amount)
            for value in observed:
                serial.histogram("work.seconds").observe(value)
        merged, expected = parent.snapshot(), serial.snapshot()
        assert merged.counters.get("work.items", 0.0) == pytest.approx(
            expected.counters.get("work.items", 0.0))
        got = merged.histograms.get("work.seconds")
        want = expected.histograms.get("work.seconds")
        if want is None:
            assert got is None or got.count == 0
        else:
            assert got.counts == want.counts
            assert got.count == want.count
            assert got.total == pytest.approx(want.total)

    @given(observations, observations)
    def test_merge_order_independent_for_histograms(self, first, second):
        ab = MetricsRegistry()
        ab.merge(_shard_registry([], first).snapshot())
        ab.merge(_shard_registry([], second).snapshot())
        ba = MetricsRegistry()
        ba.merge(_shard_registry([], second).snapshot())
        ba.merge(_shard_registry([], first).snapshot())
        a_data = ab.snapshot().histograms.get("work.seconds")
        b_data = ba.snapshot().histograms.get("work.seconds")
        if a_data is None or b_data is None:
            assert (a_data is None or a_data.count == 0) and \
                (b_data is None or b_data.count == 0)
        else:
            assert a_data.counts == b_data.counts
            assert a_data.total == pytest.approx(b_data.total)

    def test_gauges_last_merge_wins(self):
        parent = MetricsRegistry()
        parent.gauge("level").set(1.0)
        shard = MetricsRegistry()
        shard.gauge("level").set(9.0)
        parent.merge(shard.snapshot())
        assert parent.snapshot().gauges["level"] == 9.0

    def test_default_buckets_cover_latency_range(self):
        # sanity on the default layout the timing histograms use
        assert DEFAULT_TIME_BUCKETS == tuple(sorted(DEFAULT_TIME_BUCKETS))
        assert DEFAULT_TIME_BUCKETS[0] <= 0.0001
        assert DEFAULT_TIME_BUCKETS[-1] >= 10.0
