"""Rate estimators over per-stratum integer outcome counts.

Three estimators mirror the three campaign sampling methods:

* :class:`UniformRate` — plain Monte-Carlo proportion (the legacy v1
  sampler): rate ``x / n``, Wilson interval by default.
* :class:`StratifiedRate` — post-stratified estimator for campaigns that
  fix per-stratum sample sizes: ``r = sum_k p_k * x_k / n_k`` where
  ``p_k`` are the *population* stratum probabilities.  Unbiased whenever
  every stratum with positive population weight was sampled.
* :class:`ImportanceRate` — Horvitz–Thompson estimator for campaigns
  that draw each injection's stratum from a proposal distribution
  ``q_k``: every event in stratum ``k`` carries weight
  ``w_k = p_k / q_k`` and ``r = (1/N) * sum_k w_k * x_k``.  Unbiased
  whenever ``q_k > 0`` wherever ``p_k > 0``.

All three consume only aggregated integer counts — the ``by_kind``
tables :meth:`repro.faults.campaign.CampaignReport.merge_counts` already
folds — so estimation is O(strata) regardless of campaign size, and
bootstrap resampling (via the exact samplers in
:mod:`repro.stats.intervals`) is O(resamples x strata).
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Tuple

from repro.errors import StatsError
from repro.stats.intervals import (
    RateEstimate,
    binomial_draw,
    bootstrap_interval,
    multinomial_draw,
    normal_interval,
    wilson_interval,
)

__all__ = [
    "UniformRate",
    "StratifiedRate",
    "ImportanceRate",
]

_METHODS = ("auto", "wilson", "normal", "bootstrap")


def _check_method(method: str) -> None:
    """Reject unknown interval methods up front.

    Raises:
        StatsError: when ``method`` is not one of :data:`_METHODS`.
    """
    if method not in _METHODS:
        raise StatsError(
            f"unknown interval method {method!r} "
            f"(expected one of {', '.join(_METHODS)})"
        )


class UniformRate:
    """Binomial proportion estimator for uniformly sampled campaigns.

    Args:
        events: number of samples exhibiting the metric's outcome.
        trials: total number of samples.
        metric: label stamped into produced estimates.

    Raises:
        StatsError: on non-positive trials or events outside
            ``[0, trials]``.
    """

    def __init__(self, events: int, trials: int, *,
                 metric: str = "rate") -> None:
        if trials <= 0:
            raise StatsError(
                f"estimator needs at least one trial, got {trials}"
            )
        if not 0 <= events <= trials:
            raise StatsError(f"event count {events} outside [0, {trials}]")
        self._events = events
        self._trials = trials
        self._metric = metric

    @property
    def trials(self) -> int:
        """Total sample count behind the estimate."""
        return self._trials

    def rate(self) -> float:
        """The point estimate ``events / trials``."""
        return self._events / self._trials

    def variance(self) -> float:
        """Variance of the estimator: ``p (1 - p) / n``."""
        p = self.rate()
        return p * (1.0 - p) / self._trials

    def _resample(self, rng: random.Random) -> float:
        """One bootstrap replicate of the rate."""
        return binomial_draw(rng, self._trials, self.rate()) / self._trials

    def interval(self, *, confidence: float = 0.95, method: str = "auto",
                 resamples: int = 1000, seed: int = 0) -> RateEstimate:
        """Confidence interval; ``auto`` resolves to Wilson.

        Raises:
            StatsError: on an unknown method or invalid parameters.
        """
        _check_method(method)
        if method in ("auto", "wilson"):
            return wilson_interval(self._events, self._trials,
                                   confidence=confidence,
                                   metric=self._metric)
        if method == "normal":
            return normal_interval(self.rate(), self.variance(),
                                   self._trials, confidence=confidence,
                                   metric=self._metric)
        return bootstrap_interval(self._resample, rate=self.rate(),
                                  trials=self._trials,
                                  confidence=confidence,
                                  resamples=resamples, seed=seed,
                                  metric=self._metric)


class _WeightedRate:
    """Shared validation and interval plumbing of the weighted estimators."""

    def __init__(self, strata: Mapping[str, Tuple[int, int]],
                 metric: str) -> None:
        self._strata: Dict[str, Tuple[int, int]] = {}
        for name in sorted(strata):
            events, trials = strata[name]
            if trials < 0:
                raise StatsError(
                    f"stratum {name!r}: negative trial count {trials}"
                )
            if not 0 <= events <= max(trials, 0):
                raise StatsError(
                    f"stratum {name!r}: event count {events} outside "
                    f"[0, {trials}]"
                )
            self._strata[name] = (events, trials)
        self._metric = metric
        if self.trials <= 0:
            raise StatsError("estimator needs at least one trial")

    @property
    def trials(self) -> int:
        """Total sample count across strata."""
        return sum(n for (_x, n) in self._strata.values())

    def rate(self) -> float:
        """The point estimate (subclass responsibility)."""
        raise NotImplementedError

    def variance(self) -> float:
        """Variance of the estimator (subclass responsibility)."""
        raise NotImplementedError

    def _resample(self, rng: random.Random) -> float:
        """One bootstrap replicate (subclass responsibility)."""
        raise NotImplementedError

    def interval(self, *, confidence: float = 0.95, method: str = "auto",
                 resamples: int = 1000, seed: int = 0) -> RateEstimate:
        """Confidence interval; ``auto`` resolves to normal.

        The Wilson construction is specific to a plain binomial
        proportion, which a weighted estimate is not.

        Raises:
            StatsError: on ``method="wilson"`` (undefined here), an
                unknown method, or invalid parameters.
        """
        _check_method(method)
        if method == "wilson":
            raise StatsError(
                "the Wilson interval is only defined for uniform "
                "sampling; use method='normal' or 'bootstrap' on "
                "weighted estimators"
            )
        if method in ("auto", "normal"):
            return normal_interval(self.rate(), self.variance(),
                                   self.trials, confidence=confidence,
                                   metric=self._metric)
        return bootstrap_interval(self._resample, rate=self.rate(),
                                  trials=self.trials,
                                  confidence=confidence,
                                  resamples=resamples, seed=seed,
                                  metric=self._metric)


class StratifiedRate(_WeightedRate):
    """Stratified estimator: fixed per-stratum sample sizes.

    Args:
        strata: ``stratum -> (events, trials)`` integer counts.
        population: ``stratum -> p_k`` population probabilities (the
            nominal fault-mix proportions); must sum to 1 within float
            tolerance.
        metric: label stamped into produced estimates.

    Raises:
        StatsError: when a stratum with positive population weight has
            no samples (the estimate would be biased), when weights do
            not sum to 1, or on malformed counts.
    """

    def __init__(self, strata: Mapping[str, Tuple[int, int]],
                 population: Mapping[str, float], *,
                 metric: str = "rate") -> None:
        super().__init__(strata, metric)
        total = float(sum(population.values()))
        if not 0.999999 < total < 1.000001:
            raise StatsError(
                f"population stratum weights must sum to 1, got {total}"
            )
        self._population: Dict[str, float] = {}
        for name in sorted(population):
            weight = population[name]
            if weight < 0.0:
                raise StatsError(
                    f"stratum {name!r}: negative population weight {weight}"
                )
            if weight > 0.0 and self._strata.get(name, (0, 0))[1] == 0:
                raise StatsError(
                    f"stratum {name!r} carries population weight {weight} "
                    "but has no samples — the stratified estimate would "
                    "be biased"
                )
            self._population[name] = weight

    def rate(self) -> float:
        """Unbiased stratified estimate ``sum_k p_k * x_k / n_k``."""
        rate = 0.0
        for name, weight in self._population.items():
            if weight == 0.0:
                continue
            events, trials = self._strata[name]
            rate += weight * events / trials
        return rate

    def variance(self) -> float:
        """Estimator variance ``sum_k p_k^2 * r_k (1 - r_k) / n_k``."""
        variance = 0.0
        for name, weight in self._population.items():
            if weight == 0.0:
                continue
            events, trials = self._strata[name]
            r_k = events / trials
            variance += weight * weight * r_k * (1.0 - r_k) / trials
        return variance

    def _resample(self, rng: random.Random) -> float:
        """Per-stratum binomial resample (sample sizes are fixed)."""
        rate = 0.0
        for name, weight in self._population.items():
            if weight == 0.0:
                continue
            events, trials = self._strata[name]
            rate += weight * binomial_draw(rng, trials,
                                           events / trials) / trials
        return rate


class ImportanceRate(_WeightedRate):
    """Horvitz–Thompson estimator: strata drawn from a proposal.

    Args:
        strata: ``stratum -> (events, trials)`` integer counts, where
            ``trials`` is how often the proposal landed in the stratum.
        weights: ``stratum -> w_k = p_k / q_k`` importance weights.
        metric: label stamped into produced estimates.

    Raises:
        StatsError: on negative weights, a sampled stratum with no
            weight, or malformed counts.
    """

    def __init__(self, strata: Mapping[str, Tuple[int, int]],
                 weights: Mapping[str, float], *,
                 metric: str = "rate") -> None:
        super().__init__(strata, metric)
        self._weights: Dict[str, float] = {}
        for name in sorted(self._strata):
            if self._strata[name][1] == 0:
                continue
            if name not in weights:
                raise StatsError(
                    f"stratum {name!r} was sampled but has no importance "
                    "weight"
                )
            weight = float(weights[name])
            if weight < 0.0:
                raise StatsError(
                    f"stratum {name!r}: negative importance weight {weight}"
                )
            self._weights[name] = weight

    def rate(self) -> float:
        """Horvitz–Thompson estimate ``(1/N) * sum_k w_k * x_k``."""
        total = self.trials
        weighted = sum(self._weights[name] * self._strata[name][0]
                       for name in self._weights)
        return weighted / total

    def variance(self) -> float:
        """Estimator variance ``(E[v^2] - r^2) / N``.

        Each sample contributes ``v = w_k`` on an event and ``0``
        otherwise, so ``E[v^2]`` is ``(1/N) * sum_k w_k^2 * x_k``.
        """
        total = self.trials
        second_moment = sum(
            self._weights[name] ** 2 * self._strata[name][0]
            for name in self._weights
        ) / total
        rate = self.rate()
        return max(0.0, second_moment - rate * rate) / total

    def _resample(self, rng: random.Random) -> float:
        """Joint multinomial resample over (stratum, event) cells.

        Under importance sampling the per-stratum sample sizes are
        themselves random, so the bootstrap must resample the full
        (stratum x event) contingency table, not each stratum
        independently.
        """
        total = self.trials
        names = sorted(self._weights)
        cells: "list[float]" = []
        values: "list[float]" = []
        for name in names:
            events, trials = self._strata[name]
            cells.append(events / total)
            values.append(self._weights[name])
            cells.append((trials - events) / total)
            values.append(0.0)
        counts = multinomial_draw(rng, total, cells)
        weighted = sum(v * c for v, c in zip(values, counts))
        return weighted / total
