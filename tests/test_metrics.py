"""Tests for metrics: latency stats, traces, time series."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.stats as stats_module
from repro.metrics import (
    IoTrace,
    LatencyStats,
    TraceCollector,
    percentile,
)
from repro.metrics.stats import EMPTY_SUMMARY_US


class TestPercentile:
    def test_endpoints(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
           st.floats(0, 100))
    @settings(max_examples=50)
    def test_bounded_by_extremes(self, values, p):
        values.sort()
        result = percentile(values, p)
        assert values[0] <= result <= values[-1]

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=100))
    @settings(max_examples=30)
    def test_monotone_in_p(self, values):
        values.sort()
        ps = [percentile(values, p) for p in (10, 50, 90, 99)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))


class TestLatencyStats:
    def test_summary_units(self):
        stats = LatencyStats("t")
        stats.extend([1_000, 2_000, 3_000])
        summary = stats.summary_us()
        assert summary["mean_us"] == 2.0
        assert summary["count"] == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1)

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats("x").mean()

    def test_empty_summary_is_zero_row(self):
        summary = LatencyStats("idle").summary_us()
        assert summary == EMPTY_SUMMARY_US
        # The shared constant must not be mutable through the return value.
        summary["count"] = 99
        assert LatencyStats("idle").summary_us()["count"] == 0

    def test_empty_bounded_summary_is_zero_row(self):
        assert LatencyStats("idle", bounded=True).summary_us() == EMPTY_SUMMARY_US

    def test_summary_sorts_once(self, monkeypatch):
        calls = []
        real_sorted = sorted

        def counting_sorted(*args, **kwargs):
            calls.append(1)
            return real_sorted(*args, **kwargs)

        # Shadow the builtin inside the stats module only.
        monkeypatch.setattr(stats_module, "sorted", counting_sorted, raising=False)
        stats = LatencyStats("t")
        stats.extend([5_000, 1_000, 3_000, 2_000])
        stats.summary_us()  # three percentiles + max: one sort
        assert len(calls) == 1
        stats.p(50)
        stats.p(99)  # unchanged sample count: cached order
        assert len(calls) == 1
        stats.record(4_000)
        stats.summary_us()  # new sample: exactly one re-sort
        assert len(calls) == 2

    def test_bounded_mode_tracks_exact_within_relative_error(self):
        rng = random.Random(7)
        samples = [max(1, int(rng.lognormvariate(11.0, 0.7))) for _ in range(10_000)]
        exact = LatencyStats("exact")
        bounded = LatencyStats("bounded", bounded=True)
        exact.extend(samples)
        bounded.extend(samples)
        assert bounded.samples == []  # O(1) memory: no sample retained
        assert bounded.count == len(samples)
        for pct in (50, 95, 99):
            rel = abs(bounded.p(pct) - exact.p(pct)) / exact.p(pct)
            assert rel <= 0.02, f"p{pct} off by {rel:.2%}"
        assert bounded.mean() == pytest.approx(exact.mean())

    def test_bounded_merge_and_mode_mixing(self):
        a = LatencyStats("a", bounded=True)
        b = LatencyStats("b", bounded=True)
        a.extend([1_000, 2_000])
        b.extend([3_000, 4_000])
        pooled = LatencyStats.merged([a, b])
        assert pooled.count == 4
        assert pooled.summary_us()["max_us"] == 4.0
        plain = LatencyStats("plain")
        plain.record(5_000)
        with pytest.raises(ValueError):
            LatencyStats.merged([a, plain])

    def test_bounded_cannot_start_from_samples(self):
        with pytest.raises(ValueError):
            LatencyStats("x", samples=[1, 2], bounded=True)


class TestIoTrace:
    def _trace(self):
        return IoTrace(1, "write", 4096, submit_ns=100)

    def test_component_accumulation(self):
        t = self._trace()
        t.add("fn", 10)
        t.add("fn", 5)
        assert t.components["fn"] == 15

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            self._trace().add("gpu", 1)

    def test_total_requires_completion(self):
        t = self._trace()
        with pytest.raises(ValueError):
            _ = t.total_ns
        t.complete(600)
        assert t.total_ns == 500

    def test_unattributed(self):
        t = self._trace()
        t.add("sa", 100)
        t.complete(600)
        assert t.unattributed_ns() == 400

    def test_collector_percentiles(self):
        collector = TraceCollector()
        for i, total in enumerate((100, 200, 300)):
            t = IoTrace(i, "write", 4096, 0)
            t.add("fn", total)
            t.complete(total)
            collector.record(t)
        assert collector.total_percentile(50) == 200
        assert collector.component_percentile("fn", 100) == 300

    def test_collector_filters_by_kind(self):
        collector = TraceCollector()
        for kind in ("read", "write"):
            t = IoTrace(1, kind, 4096, 0)
            t.complete(10)
            collector.record(t)
        assert len(collector.completed("read")) == 1

    def test_collector_excludes_failures_by_default(self):
        collector = TraceCollector()
        t = IoTrace(1, "write", 4096, 0)
        t.complete(10, ok=False, error="boom")
        collector.record(t)
        assert collector.completed() == []
        assert len(collector.completed(ok_only=False)) == 1

    def test_incomplete_trace_not_recordable(self):
        with pytest.raises(ValueError):
            TraceCollector().record(self._trace())

    def test_breakdown_us(self):
        collector = TraceCollector()
        t = IoTrace(1, "write", 4096, 0)
        t.add("sa", 5_000)
        t.add("fn", 15_000)
        t.complete(20_000)
        collector.record(t)
        assert collector.breakdown_us(50) == {
            "sa": 5.0, "fn": 15.0, "bn": 0.0, "ssd": 0.0
        }

    def test_mark_overwrite_keeps_last_stamp(self):
        # Retried RPCs re-stamp the same stage; the trace must keep the
        # critical path, i.e. the most recent mark.
        t = self._trace()
        t.mark("fn:tx", 200)
        t.mark("fn:tx", 450)
        assert t.marks["fn:tx"] == 450
        t.mark("fn:tx", 300)  # an even later overwrite still wins
        assert t.marks["fn:tx"] == 300

    def test_error_trace_keeps_breakdown_and_total(self):
        t = self._trace()
        t.add("sa", 30)
        t.add("fn", 70)
        t.complete(600, ok=False, error="media error")
        assert not t.ok
        assert t.error == "media error"
        assert t.total_ns == 500  # timing survives the failure
        assert t.components["sa"] == 30

    def test_error_traces_excluded_from_percentiles(self):
        collector = TraceCollector()
        t = self._trace()
        t.complete(600, ok=False, error="boom")
        collector.record(t)
        with pytest.raises(ValueError):
            collector.total_percentile(50)  # ok-only view is empty
        failed = collector.completed(ok_only=False)
        assert len(failed) == 1 and failed[0].error == "boom"

    def test_subscribers_stream_each_record(self):
        seen = []
        collector = TraceCollector()
        collector.subscribe(seen.append)
        t = IoTrace(1, "write", 4096, 0)
        t.complete(10)
        collector.record(t)
        assert seen == [t]
        with pytest.raises(ValueError):
            collector.record(self._trace())  # incomplete: not streamed
        assert seen == [t]

    def test_component_sum_consistent_with_end_to_end(self):
        # On live simulated I/Os, the four component durations must never
        # exceed the end-to-end latency, and the unattributed remainder
        # must stay non-negative (Figure 6's bars fit under the total).
        from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk

        dep = EbsDeployment(DeploymentSpec(stack="luna", seed=3))
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
        for i in range(20):
            vd.write(i * 4096, 4096, lambda io: None)
        dep.run()
        traces = dep.collector.completed()
        assert len(traces) == 20
        for t in traces:
            attributed = sum(t.components.values())
            assert 0 < attributed <= t.total_ns
            assert t.unattributed_ns() >= 0
