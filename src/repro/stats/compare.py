"""Significance-tested comparison of two run artifacts.

``repro compare A B`` (and the CI perf gate next to
``tools/bench_compare.py``) answer one question: *did this rate actually
move, or is the difference sampling noise?*  Both artifacts must be of
the same kind — campaign reports (:meth:`CampaignReport.to_dict`),
stream reports (:meth:`StreamReport.to_dict`) or ``BENCH_*.json``
performance artifacts.  A report is read through its own loader
(``CampaignReport.from_dict``/``StreamReport.from_dict``), so one whose
declared totals disagree with its tables is refused, never compared.
Every shared rate is tested twice:

* a pooled two-proportion z-test (:func:`two_proportion_test`) giving a
  p-value against "the underlying rates are equal";
* a seeded bootstrap interval on the rate *difference*
  (:func:`compare_rates`), giving an error bar on the observed delta.

The comparison operates on the integer counts inside the artifacts, so
it needs no per-injection records and costs O(resamples) per rate.  The
JSON payload (:func:`compare_artifacts`) is schema-stable
(:data:`COMPARE_SCHEMA`); the CLI exit code derives from its
``significant`` field.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import StatsError
from repro.stats.intervals import (
    DEFAULT_RESAMPLES,
    binomial_draw,
    z_value,
)

__all__ = [
    "COMPARE_SCHEMA",
    "RateComparison",
    "two_proportion_test",
    "compare_rates",
    "detect_artifact_kind",
    "compare_artifacts",
    "render_comparison",
]

#: Stable schema tag of the ``repro compare --json`` payload.
COMPARE_SCHEMA = "repro-compare/v1"


@dataclass(frozen=True)
class RateComparison:
    """One rate, tested across two artifacts.

    Attributes:
        metric: the rate's label (e.g. ``"sdc"``, ``"drop"``).
        events_a / trials_a: integer counts in artifact A.
        events_b / trials_b: integer counts in artifact B.
        rate_a / rate_b: the two point estimates.
        diff: ``rate_b - rate_a``.
        diff_low / diff_high: bootstrap confidence bounds on ``diff``.
        z: pooled two-proportion z statistic.
        p_value: two-sided p-value of the z-test.
        significant: ``p_value < alpha``.
        alpha: the significance level tested against.
    """

    metric: str
    events_a: int
    trials_a: int
    events_b: int
    trials_b: int
    rate_a: float
    rate_b: float
    diff: float
    diff_low: float
    diff_high: float
    z: float
    p_value: float
    significant: bool
    alpha: float

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (one entry of the compare payload)."""
        return {
            "metric": self.metric,
            "a": {"events": self.events_a, "trials": self.trials_a,
                  "rate": self.rate_a},
            "b": {"events": self.events_b, "trials": self.trials_b,
                  "rate": self.rate_b},
            "diff": self.diff,
            "diff_low": self.diff_low,
            "diff_high": self.diff_high,
            "z": self.z,
            "p_value": self.p_value,
            "significant": self.significant,
            "alpha": self.alpha,
        }

    def describe(self) -> str:
        """One human-readable comparison line."""
        verdict = "SIGNIFICANT" if self.significant else "noise"
        return (
            f"{self.metric}: {self.rate_a:.5f} -> {self.rate_b:.5f} "
            f"(diff {self.diff:+.5f} "
            f"[{self.diff_low:+.5f}, {self.diff_high:+.5f}], "
            f"p={self.p_value:.4f}) {verdict}"
        )


def two_proportion_test(events_a: int, trials_a: int,
                        events_b: int, trials_b: int
                        ) -> Tuple[float, float]:
    """Pooled two-proportion z-test.

    Returns:
        ``(z, p_value)`` — the z statistic and its two-sided p-value
        under the null hypothesis that both samples share one rate.
        Degenerate pools (0% or 100% everywhere) return ``(0.0, 1.0)``.

    Raises:
        StatsError: on non-positive trial counts or events outside
            their trials.
    """
    for label, events, trials in (("a", events_a, trials_a),
                                  ("b", events_b, trials_b)):
        if trials <= 0:
            raise StatsError(
                f"artifact {label}: needs at least one trial, got {trials}"
            )
        if not 0 <= events <= trials:
            raise StatsError(
                f"artifact {label}: event count {events} outside "
                f"[0, {trials}]"
            )
    pooled = (events_a + events_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance <= 0.0:
        return 0.0, 1.0
    z = (events_b / trials_b - events_a / trials_a) / math.sqrt(variance)
    p_value = 2.0 * (1.0 - NormalDist().cdf(abs(z)))
    return z, p_value


def compare_rates(metric: str, a: Tuple[int, int], b: Tuple[int, int], *,
                  alpha: float = 0.05, confidence: float = 0.95,
                  resamples: int = DEFAULT_RESAMPLES,
                  seed: int = 0) -> RateComparison:
    """Test one rate across two artifacts.

    Args:
        metric: label of the rate under test.
        a: ``(events, trials)`` counts of artifact A.
        b: ``(events, trials)`` counts of artifact B.
        alpha: significance level of the z-test.
        confidence: level of the bootstrap interval on the difference.
        resamples: bootstrap replicates.
        seed: bootstrap PRNG seed (the comparison is a pure function of
            counts and parameters).

    Raises:
        StatsError: on malformed counts or parameters.
    """
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    z_value(confidence)  # validates the confidence level
    if resamples < 1:
        raise StatsError(f"bootstrap needs >= 1 resample, got {resamples}")
    events_a, trials_a = a
    events_b, trials_b = b
    z, p_value = two_proportion_test(events_a, trials_a, events_b, trials_b)
    rate_a = events_a / trials_a
    rate_b = events_b / trials_b
    rng = random.Random(seed)
    diffs = sorted(
        binomial_draw(rng, trials_b, rate_b) / trials_b
        - binomial_draw(rng, trials_a, rate_a) / trials_a
        for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    lo_index = min(resamples - 1, max(0, math.floor(tail * (resamples - 1))))
    hi_index = min(resamples - 1,
                   max(0, math.ceil((1.0 - tail) * (resamples - 1))))
    return RateComparison(
        metric=metric,
        events_a=events_a, trials_a=trials_a,
        events_b=events_b, trials_b=trials_b,
        rate_a=rate_a, rate_b=rate_b,
        diff=rate_b - rate_a,
        diff_low=diffs[lo_index], diff_high=diffs[hi_index],
        z=z, p_value=p_value,
        significant=p_value < alpha,
        alpha=alpha,
    )


# ----------------------------------------------------------------------
# artifact-level comparison
# ----------------------------------------------------------------------
def detect_artifact_kind(data: Mapping[str, Any]) -> str:
    """Classify an artifact payload as campaign, stream or bench.

    Campaign reports carry ``policy`` + ``by_kind``; stream reports carry
    ``frames`` + a ``faults`` table; BENCH artifacts carry ``scenarios``
    (and a ``bench-*`` schema tag).

    Raises:
        StatsError: when the payload matches none of the three shapes.
    """
    if not isinstance(data, Mapping):
        raise StatsError(f"artifact must be a JSON object, got {data!r}")
    if "by_kind" in data and "policy" in data:
        return "campaign"
    if "frames" in data and "faults" in data:
        return "stream"
    if "scenarios" in data:
        return "bench"
    raise StatsError(
        "unrecognised artifact: expected a campaign report (policy/"
        "by_kind), a stream report (frames/faults) or a BENCH artifact "
        "(scenarios)"
    )


def _report_rows(kind: str, data: Mapping[str, Any],
                 side: str) -> Dict[str, Tuple[int, int]]:
    """``metric -> (events, trials)`` of a campaign or stream report,
    read through the report's own loader.

    Raises:
        StatsError: naming the side, when the report fails its loader
            (a mistyped field, or a declared total or rate that
            disagrees with the counts it derives from).
    """
    from repro.errors import FaultInjectionError, StreamError

    try:
        if kind == "campaign":
            from repro.faults.report import CampaignReport

            campaign = CampaignReport.from_dict(data)
            return {metric: (getattr(campaign, metric), campaign.total)
                    for metric in ("masked", "detected", "sdc")}
        from repro.streams.report import STREAM_RATE_METRICS, StreamReport

        stream = StreamReport.from_dict(data)
    except (FaultInjectionError, StreamError) as exc:
        raise StatsError(f"artifact {side}: {exc}") from None
    return {metric: stream.rate_counts(metric)
            for metric in STREAM_RATE_METRICS
            if metric != "fault_sdc" or stream.faults.injected > 0}


def _bench_count_pairs(scenario: Mapping[str, Any]
                       ) -> List[Tuple[str, int, int]]:
    """``<m>_events`` / ``<m>_trials`` count pairs inside one scenario."""
    rows: List[Tuple[str, int, int]] = []
    for key in sorted(scenario):
        if not key.endswith("_events"):
            continue
        stem = key[: -len("_events")]
        trials_key = stem + "_trials"
        if trials_key not in scenario:
            continue
        events = scenario[key]
        trials = scenario[trials_key]
        if (isinstance(events, int) and not isinstance(events, bool)
                and isinstance(trials, int) and not isinstance(trials, bool)
                and 0 <= events <= trials and trials > 0):
            rows.append((stem, events, trials))
    return rows


def _paired_rows(kind: str, a: Mapping[str, Any], b: Mapping[str, Any]
                 ) -> List[Tuple[str, Tuple[int, int], Tuple[int, int]]]:
    """Rate rows present in both artifacts, ready for testing."""
    if kind != "bench":
        rows_a = _report_rows(kind, a, "A")
        rows_b = _report_rows(kind, b, "B")
    else:
        rows_a = {}
        rows_b = {}
        scenarios_a = a.get("scenarios", {})
        scenarios_b = b.get("scenarios", {})
        shared = sorted(set(scenarios_a) & set(scenarios_b))
        for name in shared:
            for stem, events, trials in _bench_count_pairs(scenarios_a[name]):
                rows_a[f"{name}/{stem}"] = (events, trials)
            for stem, events, trials in _bench_count_pairs(scenarios_b[name]):
                rows_b[f"{name}/{stem}"] = (events, trials)
    shared_metrics = sorted(set(rows_a) & set(rows_b))
    return [(m, rows_a[m], rows_b[m]) for m in shared_metrics]


def _bench_deltas(a: Mapping[str, Any],
                  b: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Untested relative deltas of shared scalar BENCH metrics."""
    deltas: List[Dict[str, Any]] = []
    scenarios_a = a.get("scenarios", {})
    scenarios_b = b.get("scenarios", {})
    for name in sorted(set(scenarios_a) & set(scenarios_b)):
        sa, sb = scenarios_a[name], scenarios_b[name]
        for key in sorted(set(sa) & set(sb)):
            va, vb = sa[key], sb[key]
            if (isinstance(va, bool) or isinstance(vb, bool)
                    or not isinstance(va, (int, float))
                    or not isinstance(vb, (int, float))):
                continue
            if key.endswith(("_events", "_trials")):
                continue  # already covered by the proportion rows
            rel = (vb - va) / va if va else None
            deltas.append({
                "metric": f"{name}/{key}",
                "a": va, "b": vb,
                "relative_change": rel,
            })
    return deltas


def compare_artifacts(a: Mapping[str, Any], b: Mapping[str, Any], *,
                      alpha: float = 0.05, confidence: float = 0.95,
                      resamples: int = DEFAULT_RESAMPLES,
                      seed: int = 0) -> Dict[str, Any]:
    """Full significance comparison of two same-kind artifacts.

    Returns:
        The stable :data:`COMPARE_SCHEMA` payload: one tested row per
        shared rate, untested relative deltas for scalar BENCH metrics,
        and an overall ``significant`` flag (any row significant).

    Raises:
        StatsError: on unrecognised payloads, a report that fails its
            loader (naming side ``A`` or ``B``), mismatched artifact
            kinds, or no shared rates to test.
    """
    kind_a = detect_artifact_kind(a)
    kind_b = detect_artifact_kind(b)
    if kind_a != kind_b:
        raise StatsError(
            f"cannot compare a {kind_a} artifact against a {kind_b} "
            "artifact — both sides must be the same kind"
        )
    rows = _paired_rows(kind_a, a, b)
    deltas = _bench_deltas(a, b) if kind_a == "bench" else []
    if not rows and not deltas:
        raise StatsError(
            f"the two {kind_a} artifacts share no comparable metrics"
        )
    comparisons = [
        compare_rates(metric, counts_a, counts_b, alpha=alpha,
                      confidence=confidence, resamples=resamples, seed=seed)
        for metric, counts_a, counts_b in rows
    ]
    return {
        "schema": COMPARE_SCHEMA,
        "kind": kind_a,
        "alpha": alpha,
        "confidence": confidence,
        "resamples": resamples,
        "comparisons": [c.to_dict() for c in comparisons],
        "deltas": deltas,
        "significant": any(c.significant for c in comparisons),
    }


def render_comparison(payload: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`compare_artifacts` payload."""
    lines = [f"kind: {payload['kind']}  alpha: {payload['alpha']}"]
    for row in payload["comparisons"]:
        verdict = "SIGNIFICANT" if row["significant"] else "noise"
        lines.append(
            f"  {row['metric']}: {row['a']['rate']:.5f} -> "
            f"{row['b']['rate']:.5f} (diff {row['diff']:+.5f} "
            f"[{row['diff_low']:+.5f}, {row['diff_high']:+.5f}], "
            f"p={row['p_value']:.4f}) {verdict}"
        )
    for row in payload.get("deltas", []):
        rel = row["relative_change"]
        rel_text = f"{rel:+.1%}" if rel is not None else "n/a"
        lines.append(
            f"  {row['metric']}: {row['a']} -> {row['b']} ({rel_text}, "
            "untested scalar)"
        )
    lines.append(
        "verdict: significant difference"
        if payload["significant"] else "verdict: no significant difference"
    )
    return "\n".join(lines)
