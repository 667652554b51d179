"""Confidence intervals on rates, from aggregated integer counts.

Three interval constructions cover the estimators in this package,
and a fourth compares two sample means:

* :func:`wilson_interval` — the Wilson score interval for a plain
  binomial proportion.  Well-behaved at the boundaries (rate 0 or 1)
  and for the small event counts typical of rare-event campaigns.
* :func:`normal_interval` — a normal (Wald-style) interval around an
  estimator whose variance the caller supplies.  Used by the stratified
  and importance estimators, whose variances are not binomial.
* :func:`bootstrap_interval` — a seeded percentile bootstrap over a
  caller-supplied resampling function.  The resamplers in this module
  (:func:`binomial_draw`, :func:`multinomial_draw`) draw *exactly* from
  the counting distributions, so resampling a campaign costs
  O(resamples x strata) — never O(injections).
* :func:`welch_interval` — the normal (Welch) interval on the difference
  of two sample means with unequal variances; ``repro obs diff`` tests
  per-span self times with it.

The three rate intervals return a :class:`RateEstimate`, the value
object the repeaters' stopping rule and the CLI's report rendering
consume.
Every random draw comes from an explicit :class:`random.Random`
instance, keeping the library deterministic end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import StatsError

__all__ = [
    "RateEstimate",
    "z_value",
    "wilson_interval",
    "normal_interval",
    "bootstrap_interval",
    "welch_interval",
    "binomial_draw",
    "multinomial_draw",
]

#: Default bootstrap resample count (percentile method).
DEFAULT_RESAMPLES = 1000


@dataclass(frozen=True)
class RateEstimate:
    """A rate estimate with its confidence interval.

    Attributes:
        metric: label of the estimated rate (e.g. ``"sdc"``).
        rate: the point estimate, in ``[0, 1]``.
        low: lower confidence bound (clamped to ``[0, 1]``).
        high: upper confidence bound (clamped to ``[0, 1]``).
        confidence: the two-sided confidence level, in ``(0, 1)``.
        method: interval construction (``wilson``/``normal``/``bootstrap``).
        samples: number of underlying samples (injections, frames).
    """

    metric: str
    rate: float
    low: float
    high: float
    confidence: float
    method: str
    samples: int

    @property
    def half_width(self) -> float:
        """Half the interval width — the ± error bar."""
        return (self.high - self.low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the rate; ``inf`` for a zero rate."""
        if self.rate == 0.0:
            return math.inf
        return self.half_width / self.rate

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for reports and ``--json`` output."""
        return {
            "metric": self.metric,
            "rate": self.rate,
            "low": self.low,
            "high": self.high,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "method": self.method,
            "samples": self.samples,
        }

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``0.0450 ±0.0123 (95% CI)``."""
        return (f"{self.rate:.4f} ±{self.half_width:.4f} "
                f"({self.confidence:.0%} CI)")


def z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    Raises:
        StatsError: when ``confidence`` is outside ``(0, 1)``.
    """
    if not 0.0 < confidence < 1.0:
        raise StatsError(
            f"confidence level must be in (0, 1), got {confidence}"
        )
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def _check_counts(events: int, trials: int) -> None:
    """Validate an (events, trials) pair.

    Raises:
        StatsError: on zero/negative trials or events outside
            ``[0, trials]``.
    """
    if trials <= 0:
        raise StatsError(f"interval needs at least one trial, got {trials}")
    if not 0 <= events <= trials:
        raise StatsError(
            f"event count {events} outside [0, {trials}]"
        )


def wilson_interval(events: int, trials: int, *,
                    confidence: float = 0.95,
                    metric: str = "rate") -> RateEstimate:
    """Wilson score interval for a binomial proportion.

    Args:
        events: number of successes.
        trials: number of Bernoulli trials.
        confidence: two-sided confidence level.
        metric: label stamped into the returned estimate.

    Raises:
        StatsError: on invalid counts or confidence level.
    """
    _check_counts(events, trials)
    z = z_value(confidence)
    n = float(trials)
    p = events / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    spread = (z / denom) * math.sqrt(
        p * (1.0 - p) / n + z2 / (4.0 * n * n)
    )
    return RateEstimate(
        metric=metric,
        rate=p,
        low=max(0.0, centre - spread),
        high=min(1.0, centre + spread),
        confidence=confidence,
        method="wilson",
        samples=trials,
    )


def normal_interval(rate: float, variance: float, trials: int, *,
                    confidence: float = 0.95,
                    metric: str = "rate") -> RateEstimate:
    """Normal interval around an estimator with caller-supplied variance.

    Args:
        rate: the point estimate.
        variance: variance *of the estimator* (already divided by the
            sample size where applicable).
        trials: number of underlying samples (bookkeeping only).
        confidence: two-sided confidence level.
        metric: label stamped into the returned estimate.

    Raises:
        StatsError: on a negative variance, non-positive trials, or an
            invalid confidence level.
    """
    if trials <= 0:
        raise StatsError(f"interval needs at least one trial, got {trials}")
    if variance < 0.0:
        raise StatsError(f"estimator variance cannot be negative: {variance}")
    z = z_value(confidence)
    spread = z * math.sqrt(variance)
    return RateEstimate(
        metric=metric,
        rate=rate,
        low=max(0.0, rate - spread),
        high=min(1.0, rate + spread),
        confidence=confidence,
        method="normal",
        samples=trials,
    )


def bootstrap_interval(resample: Callable[[random.Random], float], *,
                       rate: float, trials: int,
                       confidence: float = 0.95,
                       resamples: int = DEFAULT_RESAMPLES,
                       seed: int = 0,
                       metric: str = "rate") -> RateEstimate:
    """Seeded percentile-bootstrap interval.

    Args:
        resample: draws one bootstrap replicate of the rate from the
            supplied PRNG (the estimators in
            :mod:`repro.stats.estimators` provide these).
        rate: the point estimate reported alongside the interval.
        trials: number of underlying samples (bookkeeping only).
        confidence: two-sided confidence level.
        resamples: number of bootstrap replicates.
        seed: PRNG seed — the interval is a pure function of
            ``(counts, confidence, resamples, seed)``.
        metric: label stamped into the returned estimate.

    Raises:
        StatsError: on a non-positive resample count, non-positive
            trials, or an invalid confidence level.
    """
    z_value(confidence)  # validates the confidence level
    if trials <= 0:
        raise StatsError(f"interval needs at least one trial, got {trials}")
    if resamples < 1:
        raise StatsError(f"bootstrap needs >= 1 resample, got {resamples}")
    rng = random.Random(seed)
    draws = sorted(resample(rng) for _ in range(resamples))
    low, high = _percentile_bounds(draws, confidence)
    return RateEstimate(
        metric=metric,
        rate=rate,
        low=max(0.0, low),
        high=min(1.0, high),
        confidence=confidence,
        method="bootstrap",
        samples=trials,
    )


def welch_interval(a: Sequence[float], b: Sequence[float], *,
                   confidence: float = 0.95
                   ) -> Optional[Tuple[float, float]]:
    """Normal interval ``(low, high)`` on ``mean(b) - mean(a)``.

    Welch's unequal-variance standard error with a normal quantile;
    ``None`` when either sample has fewer than two values.

    Raises:
        StatsError: for a confidence outside ``(0, 1)``.
    """
    if len(a) < 2 or len(b) < 2:
        return None
    mean_a = sum(a) / len(a)
    mean_b = sum(b) / len(b)
    var_a = sum((x - mean_a) ** 2 for x in a) / (len(a) - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (len(b) - 1)
    half = z_value(confidence) * math.sqrt(var_a / len(a) + var_b / len(b))
    delta = mean_b - mean_a
    return delta - half, delta + half


def _percentile_bounds(sorted_draws: Sequence[float],
                       confidence: float) -> "tuple[float, float]":
    """Symmetric percentile bounds over pre-sorted bootstrap draws."""
    count = len(sorted_draws)
    tail = (1.0 - confidence) / 2.0
    lo_index = min(count - 1, max(0, math.floor(tail * (count - 1))))
    hi_index = min(count - 1, max(0, math.ceil((1.0 - tail) * (count - 1))))
    return sorted_draws[lo_index], sorted_draws[hi_index]


# ----------------------------------------------------------------------
# exact count resamplers (the bootstrap's substrate)
# ----------------------------------------------------------------------
def binomial_draw(rng: random.Random, trials: int, p: float) -> int:
    """One exact Binomial(``trials``, ``p``) draw.

    Classic bootstrap resampling of a Bernoulli sample of size ``n`` with
    ``x`` successes is exactly a ``Binomial(n, x/n)`` draw, so this is
    the whole per-stratum bootstrap in one call.  Implemented as inverse
    transform enumerated outward from the distribution's mode, which
    costs an expected O(standard deviation) probability-mass evaluations
    per draw — fast even for million-injection campaigns.

    Raises:
        StatsError: on negative trials or ``p`` outside ``[0, 1]``.
    """
    if trials < 0:
        raise StatsError(f"binomial trials cannot be negative: {trials}")
    if not 0.0 <= p <= 1.0:
        raise StatsError(f"binomial probability outside [0, 1]: {p}")
    if trials == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return trials
    n = trials
    mode = int((n + 1) * p)
    mode = min(mode, n)
    log_pmf_mode = (
        math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
        + mode * math.log(p) + (n - mode) * math.log1p(-p)
    )
    pmf_mode = math.exp(log_pmf_mode)
    odds = p / (1.0 - p)
    u = rng.random()
    # enumerate k = mode, mode+1, mode-1, mode+2, ... — a fixed order, so
    # subtracting probability mass until u is exhausted is an exact
    # inverse transform of the (reordered) distribution
    u -= pmf_mode
    if u <= 0.0:
        return mode
    pmf_up = pmf_mode
    pmf_down = pmf_mode
    k_up = mode
    k_down = mode
    while k_up < n or k_down > 0:
        if k_up < n:
            pmf_up *= (n - k_up) / (k_up + 1) * odds
            k_up += 1
            u -= pmf_up
            if u <= 0.0:
                return k_up
        if k_down > 0:
            pmf_down *= k_down / ((n - k_down + 1) * odds)
            k_down -= 1
            u -= pmf_down
            if u <= 0.0:
                return k_down
    # float round-off exhausted the mass without crossing zero
    return mode


def multinomial_draw(rng: random.Random, trials: int,
                     probs: Sequence[float]) -> "list[int]":
    """One exact Multinomial(``trials``, ``probs``) draw.

    Implemented by the conditional method: cell by cell, draw a binomial
    of the remaining trials with the cell's renormalised probability.
    Used to bootstrap importance-sampled estimates, where the per-cell
    counts are jointly (not independently) random.

    Raises:
        StatsError: on negative trials, an empty or negative probability
            vector, or probabilities summing to zero.
    """
    if trials < 0:
        raise StatsError(f"multinomial trials cannot be negative: {trials}")
    if not probs:
        raise StatsError("multinomial needs at least one cell")
    if any(p < 0.0 for p in probs):
        raise StatsError("multinomial probabilities cannot be negative")
    mass = float(sum(probs))
    if mass <= 0.0:
        raise StatsError("multinomial probabilities sum to zero")
    counts: "list[int]" = []
    remaining = trials
    for prob in probs[:-1]:
        if remaining == 0 or mass <= 0.0:
            counts.append(0)
            continue
        share = min(1.0, max(0.0, prob / mass))
        drawn = binomial_draw(rng, remaining, share)
        counts.append(drawn)
        remaining -= drawn
        mass -= prob
    counts.append(remaining)
    return counts
