"""Tests for repro.stats.intervals: Wilson / normal / bootstrap / Welch CIs.

The property tests check *nominal coverage*: a 95% interval constructed
from seeded Bernoulli data must contain the true rate in roughly 95% of
replications.  Exact coverage of the Wilson score interval oscillates
with (n, p), so the assertions use a tolerance band rather than a point
value.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import StatsError
from repro.stats import (
    RateEstimate,
    binomial_draw,
    bootstrap_interval,
    multinomial_draw,
    wilson_interval,
)
from repro.stats.intervals import normal_interval, welch_interval, z_value


class TestRateEstimate:
    def test_half_width_and_relative(self):
        est = RateEstimate(metric="sdc", rate=0.2, low=0.15, high=0.25,
                           confidence=0.95, method="wilson", samples=100)
        assert est.half_width == pytest.approx(0.05)
        assert est.relative_half_width == pytest.approx(0.25)

    def test_relative_half_width_infinite_at_zero_rate(self):
        est = RateEstimate(metric="sdc", rate=0.0, low=0.0, high=0.05,
                           confidence=0.95, method="wilson", samples=10)
        assert math.isinf(est.relative_half_width)

    def test_describe_and_to_dict(self):
        est = wilson_interval(5, 100)
        text = est.describe()
        assert "95% CI" in text and "0.05" in text
        data = est.to_dict()
        assert data["method"] == "wilson"
        assert data["samples"] == 100
        assert data["low"] <= data["rate"] <= data["high"]


class TestWilson:
    def test_zero_events_lower_bound_is_zero(self):
        est = wilson_interval(0, 100)
        assert est.rate == 0.0
        assert est.low == 0.0
        # classic rule-of-three neighbourhood: z^2 / (n + z^2)
        assert est.high == pytest.approx(1.96**2 / (100 + 1.96**2), rel=1e-3)

    def test_all_events_upper_bound_is_one(self):
        est = wilson_interval(100, 100)
        assert est.high == 1.0
        assert est.low < 1.0

    def test_interval_narrows_with_samples(self):
        wide = wilson_interval(10, 100)
        narrow = wilson_interval(100, 1000)
        assert narrow.half_width < wide.half_width

    def test_rejects_impossible_counts(self):
        with pytest.raises(StatsError):
            wilson_interval(5, 0)
        with pytest.raises(StatsError):
            wilson_interval(11, 10)
        with pytest.raises(StatsError):
            wilson_interval(-1, 10)

    def test_rejects_bad_confidence(self):
        with pytest.raises(StatsError):
            wilson_interval(5, 10, confidence=1.0)
        with pytest.raises(StatsError):
            z_value(0.0)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
    def test_nominal_coverage(self, p):
        """~95% of seeded replications must cover the true rate."""
        n, replications = 120, 400
        covered = 0
        for seed in range(replications):
            rng = random.Random(1000 + seed)
            events = sum(rng.random() < p for _ in range(n))
            est = wilson_interval(events, n)
            covered += est.low <= p <= est.high
        coverage = covered / replications
        assert 0.90 <= coverage <= 0.995, coverage


class TestNormal:
    def test_matches_hand_computation(self):
        # rate 0.2, Var(r̂) = 0.0004 → sd 0.02, z=1.96
        est = normal_interval(0.2, 0.0004, 100)
        assert est.method == "normal"
        assert est.half_width == pytest.approx(1.96 * 0.02, rel=1e-3)

    def test_clamps_to_unit_interval(self):
        est = normal_interval(0.02, 0.01, 10)
        assert est.low == 0.0
        est = normal_interval(0.99, 0.01, 10)
        assert est.high == 1.0


class TestWelch:
    def test_interval_brackets_the_mean_difference(self):
        a, b = [4.0, 4.6, 3.7, 4.2], [9.1, 8.4, 9.9]
        low, high = welch_interval(a, b, confidence=0.95)
        var_a = sum((x - 4.125) ** 2 for x in a) / 3
        var_b = sum((x - 9.133333333333333) ** 2 for x in b) / 2
        half = z_value(0.95) * math.sqrt(var_a / 4 + var_b / 3)
        delta = sum(b) / 3 - sum(a) / 4
        assert (low, high) == pytest.approx((delta - half, delta + half))

    def test_identical_constant_samples_give_a_point(self):
        assert welch_interval([2.0, 2.0], [2.0, 2.0, 2.0]) == (0.0, 0.0)

    def test_fewer_than_two_values_gives_none(self):
        assert welch_interval([1.0], [1.0, 2.0]) is None
        assert welch_interval([1.0, 2.0], []) is None

    def test_rejects_bad_confidence(self):
        with pytest.raises(StatsError):
            welch_interval([1.0, 2.0], [1.0, 2.0], confidence=1.0)


class TestBinomialDraw:
    def test_degenerate_probabilities(self):
        rng = random.Random(0)
        assert binomial_draw(rng, 50, 0.0) == 0
        assert binomial_draw(rng, 50, 1.0) == 50
        assert binomial_draw(rng, 0, 0.5) == 0

    def test_mean_and_variance(self):
        rng = random.Random(42)
        n, p, reps = 400, 0.3, 2000
        draws = [binomial_draw(rng, n, p) for _ in range(reps)]
        mean = sum(draws) / reps
        var = sum((d - mean) ** 2 for d in draws) / reps
        assert mean == pytest.approx(n * p, rel=0.02)
        assert var == pytest.approx(n * p * (1 - p), rel=0.15)

    def test_large_n_small_p_does_not_underflow(self):
        # naive pmf iteration from k=0 underflows here; the mode-centred
        # enumeration must still return a sane draw
        rng = random.Random(7)
        draws = [binomial_draw(rng, 10**6, 1e-4) for _ in range(50)]
        mean = sum(draws) / len(draws)
        assert 60 <= mean <= 140  # true mean 100

    def test_deterministic_for_a_seed(self):
        a = [binomial_draw(random.Random(5), 100, 0.4) for _ in range(3)]
        b = [binomial_draw(random.Random(5), 100, 0.4) for _ in range(3)]
        assert a == b


class TestMultinomialDraw:
    def test_counts_sum_to_trials(self):
        rng = random.Random(3)
        counts = multinomial_draw(rng, 1000, [0.2, 0.5, 0.3])
        assert sum(counts) == 1000
        assert all(c >= 0 for c in counts)

    def test_marginal_means(self):
        rng = random.Random(9)
        probs = [0.1, 0.6, 0.3]
        totals = [0, 0, 0]
        reps = 500
        for _ in range(reps):
            for i, c in enumerate(multinomial_draw(rng, 200, probs)):
                totals[i] += c
        for i, p in enumerate(probs):
            assert totals[i] / (reps * 200) == pytest.approx(p, abs=0.02)


class TestBootstrap:
    def test_contains_point_estimate(self):
        def resample(rng):
            return binomial_draw(rng, 200, 0.15) / 200

        est = bootstrap_interval(resample, rate=0.15, trials=200,
                                 resamples=500, seed=1, metric="sdc")
        assert est.method == "bootstrap"
        assert est.low <= 0.15 <= est.high

    def test_deterministic_for_a_seed(self):
        def resample(rng):
            return binomial_draw(rng, 100, 0.4) / 100

        kwargs = dict(rate=0.4, trials=100, resamples=200, metric="x")
        a = bootstrap_interval(resample, seed=3, **kwargs)
        b = bootstrap_interval(resample, seed=3, **kwargs)
        c = bootstrap_interval(resample, seed=4, **kwargs)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_nominal_coverage(self):
        """Bootstrap percentile CI covers the truth at ~nominal rate."""
        p, n, replications = 0.25, 150, 120
        covered = 0
        for seed in range(replications):
            rng = random.Random(5000 + seed)
            events = sum(rng.random() < p for _ in range(n))
            rate = events / n

            def resample(r, _events=events):
                return binomial_draw(r, n, _events / n) / n

            est = bootstrap_interval(resample, rate=rate, trials=n,
                                     resamples=300, seed=seed, metric="x")
            covered += est.low <= p <= est.high
        coverage = covered / replications
        assert 0.85 <= coverage <= 1.0, coverage

    def test_rejects_bad_resamples(self):
        with pytest.raises(StatsError):
            bootstrap_interval(lambda rng: 0.5, rate=0.5, trials=10,
                               resamples=0, metric="x")
