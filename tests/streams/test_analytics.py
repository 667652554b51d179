"""Tests for the online O(1)-memory statistics (repro.streams.analytics)."""

from __future__ import annotations

import math
import random
import statistics

import pytest

from repro.errors import StreamError
from repro.streams.analytics import (
    P2Quantile,
    StreamAccumulator,
    WindowedRates,
)


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(StreamError):
                P2Quantile(q)

    def test_empty_estimate_rejected(self):
        with pytest.raises(StreamError):
            P2Quantile(0.5).value

    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        est.add(10.0)
        assert est.value == 10.0
        est.add(20.0)
        assert est.value == 15.0
        est.add(30.0)
        assert est.value == 20.0

    def test_median_of_uniform_stream(self):
        rng = random.Random(42)
        est = P2Quantile(0.5)
        for _ in range(20_000):
            est.add(rng.random())
        assert est.value == pytest.approx(0.5, abs=0.02)

    def test_tail_quantile_of_exponential_stream(self):
        rng = random.Random(7)
        est = P2Quantile(0.99)
        values = [rng.expovariate(1.0) for _ in range(50_000)]
        for v in values:
            est.add(v)
        exact = statistics.quantiles(values, n=100)[98]
        assert est.value == pytest.approx(exact, rel=0.1)

    def test_deterministic_fold(self):
        values = [random.Random(1).random() for _ in range(1000)]
        a, b = P2Quantile(0.9), P2Quantile(0.9)
        for v in values:
            a.add(v)
            b.add(v)
        assert a.value == b.value

    def test_constant_stream(self):
        est = P2Quantile(0.9)
        for _ in range(100):
            est.add(5.0)
        assert est.value == 5.0


class TestStreamAccumulatorMoments:
    """The fused Welford folds of latency and wait against batch statistics."""

    def test_empty_moments(self):
        acc = StreamAccumulator((0.5,), 100.0)
        assert acc.latency_summary() == {"count": 0.0}
        assert acc.wait_summary() == {"count": 0.0}

    def test_matches_batch_statistics(self):
        rng = random.Random(3)
        latencies = [rng.uniform(-5, 5) for _ in range(10_000)]
        waits = [rng.uniform(0, 2) for _ in range(10_000)]
        acc = StreamAccumulator((0.5,), 100.0)
        for i, (latency, wait) in enumerate(zip(latencies, waits)):
            acc.observe(latency, wait, completion_ms=float(i), busy_ms=1.0)
        for summary, values in ((acc.latency_summary(), latencies),
                                (acc.wait_summary(), waits)):
            assert summary["count"] == len(values)
            assert summary["min"] == min(values)
            assert summary["max"] == max(values)
            assert summary["mean"] == pytest.approx(statistics.fmean(values))
            assert summary["std"] == pytest.approx(statistics.pstdev(values),
                                                   rel=1e-9)

    def test_single_observation(self):
        acc = StreamAccumulator((0.5,), 100.0)
        acc.observe(3.5, 1.25, completion_ms=3.5, busy_ms=2.25)
        assert acc.latency_summary() == {"count": 1.0, "min": 3.5,
                                         "max": 3.5, "mean": 3.5, "std": 0.0}
        assert acc.wait_summary() == {"count": 1.0, "min": 1.25,
                                      "max": 1.25, "mean": 1.25, "std": 0.0}


class TestWindowedRates:
    def test_nonpositive_window_rejected(self):
        with pytest.raises(StreamError):
            WindowedRates(0.0)

    def test_backwards_completion_rejected(self):
        w = WindowedRates(100.0)
        w.observe(50.0, 1.0)
        with pytest.raises(StreamError):
            w.observe(49.0, 1.0)

    def test_single_window_aggregates(self):
        w = WindowedRates(1000.0)  # 1 s windows
        for t in (100.0, 200.0, 300.0, 400.0):
            w.observe(t, 50.0)
        summary = w.summary()
        assert summary["windows"] == 1.0
        assert summary["fps_mean"] == pytest.approx(4.0)
        assert summary["util_mean"] == pytest.approx(0.2)

    def test_idle_windows_count_as_zero(self):
        w = WindowedRates(100.0)
        w.observe(50.0, 10.0)    # window 0
        w.observe(450.0, 10.0)   # window 4; windows 1-3 idle
        summary = w.summary()
        assert summary["windows"] == 5.0
        assert summary["fps_min"] == 0.0
        assert summary["util_min"] == 0.0
        assert summary["fps_max"] == pytest.approx(10.0)

    def test_utilisation_clamped_to_one(self):
        w = WindowedRates(100.0)
        w.observe(10.0, 500.0)
        assert w.summary()["util_max"] == 1.0

    def test_summary_idempotent(self):
        w = WindowedRates(100.0)
        w.observe(10.0, 5.0)
        w.observe(150.0, 5.0)
        assert w.summary() == w.summary()

    def test_empty_summary(self):
        summary = WindowedRates(100.0).summary()
        assert summary["windows"] == 1.0
        assert summary["fps_mean"] == 0.0
        assert summary["util_mean"] == 0.0
        assert not math.isinf(summary["fps_min"])
