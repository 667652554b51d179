"""Significance-tested comparison of two run artifacts.

``repro compare A B`` answers one question: *did this rate actually
move, or is the difference sampling noise?*  Both artifacts must be of
the same kind — campaign, platform or stream reports, or
``BENCH_*.json`` performance artifacts.  A report's kind is the one
report class that declares the most keys of it; that class's loader
alone reads it, so one whose declared totals disagree with its tables,
or with a key its class does not declare, is refused, never compared,
and its ``rate_rows()`` are the rates tested.
Every rate both sides share, with trials on both, is tested twice:

* a pooled two-proportion z-test (:func:`two_proportion_test`) giving a
  p-value against "the underlying rates are equal";
* a seeded bootstrap interval on the rate *difference*
  (:func:`compare_rates`), giving an error bar on the observed delta.

The comparison operates on the integer counts inside the artifacts, so
it needs no per-injection records and costs O(resamples) per rate.

A BENCH comparison is also the perf-regression gate of CI: every other
shared scenario metric is judged by a rule chosen from its name
(:func:`_bench_rule`) and gets a verdict — ``ok``, ``warn`` or
``fail``.  The JSON payload (:func:`compare_artifacts`) is
schema-stable (:data:`COMPARE_SCHEMA`); the CLI exit code derives from
its ``significant`` field and, for BENCH artifacts, its ``failed``
field.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Dict, List, Mapping, Set, Tuple

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
        return _describe(self.to_dict())


def _describe(row: Mapping[str, Any]) -> str:
    """One human-readable line of a :meth:`RateComparison.to_dict` row."""
    verdict = "SIGNIFICANT" if row["significant"] else "noise"
    return (f"{row['metric']}: {row['a']['rate']:.5f} -> "
            f"{row['b']['rate']:.5f} (diff {row['diff']:+.5f} "
            f"[{row['diff_low']:+.5f}, {row['diff_high']:+.5f}], "
            f"p={row['p_value']:.4f}) {verdict}")


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
def _bench_rows(scenarios: Any, side: str) -> Dict[str, Tuple[int, int]]:
    """``scenario/<m> -> (events, trials)`` of every integer
    ``<m>_events``/``<m>_trials`` count pair of a BENCH artifact."""
    if not isinstance(scenarios, Mapping):
        raise StatsError(f"artifact {side}: scenarios must be an object")
    rows: Dict[str, Tuple[int, int]] = {}
    for name, scenario in sorted(scenarios.items()):
        if not isinstance(scenario, Mapping):
            raise StatsError(
                f"artifact {side}: scenario {name!r} must be an object")
        for key in sorted(scenario):
            stem = key[: -len("_events")]
            counts = (scenario[key], scenario.get(stem + "_trials"))
            if (key.endswith("_events")
                    and all(type(n) is int for n in counts)
                    and 0 <= counts[0] <= counts[1]):
                rows[f"{name}/{stem}"] = counts
    return rows


def _kind_and_rows(data: Mapping[str, Any], side: str
                   ) -> Tuple[str, Dict[str, Tuple[int, int]]]:
    """The kind of one artifact and its ``metric -> (events, trials)``
    rows: BENCH for a payload with ``scenarios``, else the one report
    class that declares the most keys of it, read by that class's loader
    alone, its rows the report's ``rate_rows()``.

    Raises:
        StatsError: naming the side, when ``data`` is not an object,
            no report class declares more of its keys than every other,
            or it fails its loader.
    """
    from repro.faults.report import CampaignReport
    from repro.platform.report import PlatformReport
    from repro.streams.report import StreamReport

    if not isinstance(data, Mapping):
        raise StatsError(
            f"artifact {side} must be a JSON object, got "
            f"{type(data).__name__}")
    if "scenarios" in data:
        return "bench", _bench_rows(data["scenarios"], side)
    scored = [(len(cls.known_keys().intersection(data)), kind, cls)
              for kind, cls in (("campaign", CampaignReport),
                                ("platform", PlatformReport),
                                ("stream", StreamReport))]
    best = max(score for score, _, _ in scored)
    fits = [(kind, cls) for score, kind, cls in scored if score == best]
    if len(fits) != 1:
        raise StatsError(
            f"artifact {side}: unrecognised artifact: expected the keys of "
            "one campaign, platform or stream report, or BENCH scenarios")
    (kind, cls), = fits
    try:
        return kind, cls.from_dict(data).rate_rows()
    except cls.load_error as exc:
        raise StatsError(f"artifact {side}: {exc}") from None


#: Largest relative drop of a ``*per_sec*`` throughput, and largest
#: relative rise of a ``cli_*_s`` start-up wall, that passes (a ``*_s``
#: wall above it only warns).
_TOLERANCE = 0.20

#: Largest relative drop of a ``speedup*`` ratio that passes: a ratio of
#: two measured walls is noisier than either wall.
_RATIO_TOLERANCE = 0.35

#: Absolute ceiling of a ``*overhead_frac`` metric: disabled telemetry
#: may cost at most 2% of the uninstrumented loop, whatever the
#: baseline read.
_OVERHEAD_LIMIT = 0.02


def _bench_rule(metric: str) -> str:
    """The rule that judges one BENCH metric, chosen from its name.

    ``throughput_fps`` is frames per second of *simulated* time, a pure
    function of the spec, so like digests, counts, verdict strings and
    the ``cli_*_modules`` counts it must not change at all.
    """
    if metric == "throughput_fps":
        return "exact"
    if "per_sec" in metric:
        return "throughput"
    if metric.startswith("speedup"):
        return "ratio"
    if metric.endswith("overhead_frac"):
        return "overhead"
    if metric.startswith("cli_") and metric.endswith("_s"):
        return "cli_wall"
    if metric.endswith("_s"):
        return "wall"
    return "exact"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bench_verdict(rule: str, a: Any, b: Any) -> str:
    """``"ok"``, ``"warn"`` or ``"fail"`` for one metric moving a -> b.

    Improvements always pass; a value that is not a number on either
    side is held to equality whatever its rule.
    """
    if rule == "exact" or not (_is_number(a) and _is_number(b)):
        return "ok" if a == b else "fail"
    if rule == "overhead":
        return "fail" if b > _OVERHEAD_LIMIT else "ok"
    if a <= 0:
        return "ok"
    if rule == "throughput":
        return "fail" if b < a * (1.0 - _TOLERANCE) else "ok"
    if rule == "ratio":
        return "fail" if b < a * (1.0 - _RATIO_TOLERANCE) else "ok"
    if b <= a * (1.0 + _TOLERANCE):
        return "ok"
    return "fail" if rule == "cli_wall" else "warn"


def _bench_delta(metric: str, rule: str, a: Any, b: Any,
                 verdict: str) -> Dict[str, Any]:
    """One gated row of the payload's ``deltas``."""
    rel = (b - a) / a if _is_number(a) and _is_number(b) and a else None
    return {"metric": metric, "a": a, "b": b, "relative_change": rel,
            "rule": rule, "verdict": verdict}


def _bench_gate(a: Mapping[str, Any], b: Mapping[str, Any],
                tested: Set[str]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """``(deltas, warnings)``: every shared scenario metric judged by its
    rule, and what the two artifacts do not share.

    ``<m>_events``/``<m>_trials`` counts of a rate in ``tested`` are left
    to its proportion row; any other count is exact.  An
    ``*overhead_frac`` new in B is judged without a baseline: the budget
    binds from the first recording.
    """
    warnings: List[str] = []
    if a.get("environment") != b.get("environment"):
        warnings.append(
            f"environments differ (A {a.get('environment')}, "
            f"B {b.get('environment')}): timings cross machines or "
            "interpreters"
        )
    deltas: List[Dict[str, Any]] = []
    scenarios_a = a.get("scenarios", {})
    scenarios_b = b.get("scenarios", {})
    for name in sorted(set(scenarios_a) - set(scenarios_b)):
        warnings.append(f"scenario {name!r} is missing from B")
    for name in sorted(set(scenarios_b) - set(scenarios_a)):
        warnings.append(f"scenario {name!r} is new in B (no baseline)")
    for name in sorted(set(scenarios_a) & set(scenarios_b)):
        sa, sb = scenarios_a[name], scenarios_b[name]
        for key in sorted(set(sa) - set(sb)):
            warnings.append(f"{name}/{key} is missing from B")
        for key in sorted(set(sb) - set(sa)):
            if (_bench_rule(key) == "overhead" and _is_number(sb[key])
                    and sb[key] > _OVERHEAD_LIMIT):
                deltas.append(_bench_delta(f"{name}/{key}", "overhead",
                                           None, sb[key], "fail"))
            else:
                warnings.append(f"{name}/{key} is new in B (no baseline)")
        for key in sorted(set(sa) & set(sb)):
            if (key.endswith(("_events", "_trials"))
                    and f"{name}/{key.rsplit('_', 1)[0]}" in tested):
                continue
            rule = _bench_rule(key)
            deltas.append(_bench_delta(
                f"{name}/{key}", rule, sa[key], sb[key],
                _bench_verdict(rule, sa[key], sb[key]),
            ))
    return deltas, warnings


def compare_artifacts(a: Mapping[str, Any], b: Mapping[str, Any], *,
                      alpha: float = 0.05, confidence: float = 0.95,
                      resamples: int = DEFAULT_RESAMPLES,
                      seed: int = 0) -> Dict[str, Any]:
    """Full significance comparison of two same-kind artifacts.

    Returns:
        The stable :data:`COMPARE_SCHEMA` payload: one tested row per
        shared rate and an overall ``significant`` flag (any row
        significant).  BENCH artifacts add one gated row per other
        shared metric in ``deltas`` (its ``rule`` and ``verdict``),
        ``warnings`` and a ``failed`` flag (any verdict ``fail``);
        ``deltas`` is empty for reports.

    Raises:
        StatsError: on unrecognised payloads, a report that fails its
            loader (naming side ``A`` or ``B``), mismatched artifact
            kinds, or no shared metrics to compare.
    """
    kind_a, rows_a = _kind_and_rows(a, "A")
    kind_b, rows_b = _kind_and_rows(b, "B")
    if kind_a != kind_b:
        raise StatsError(
            f"cannot compare a {kind_a} artifact against a {kind_b} "
            "artifact — both sides must be the same kind"
        )
    # a rate with no trials on either side is not compared
    rows = [(m, rows_a[m], rows_b[m])
            for m in sorted(set(rows_a) & set(rows_b))
            if rows_a[m][1] and rows_b[m][1]]
    deltas, warnings = (_bench_gate(a, b, {m for m, _, _ in rows})
                        if kind_a == "bench" else ([], []))
    if not rows and not deltas:
        raise StatsError(
            f"the two {kind_a} artifacts share no comparable metrics"
        )
    comparisons = [
        compare_rates(metric, counts_a, counts_b, alpha=alpha,
                      confidence=confidence, resamples=resamples, seed=seed)
        for metric, counts_a, counts_b in rows
    ]
    payload = {
        "schema": COMPARE_SCHEMA,
        "kind": kind_a,
        "alpha": alpha,
        "confidence": confidence,
        "resamples": resamples,
        "comparisons": [c.to_dict() for c in comparisons],
        "deltas": deltas,
        "significant": any(c.significant for c in comparisons),
    }
    if kind_a == "bench":
        payload["warnings"] = warnings
        payload["failed"] = any(d["verdict"] == "fail" for d in deltas)
    return payload


def render_comparison(payload: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`compare_artifacts` payload."""
    lines = [f"kind: {payload['kind']}  alpha: {payload['alpha']}"]
    lines.extend("  " + _describe(row) for row in payload["comparisons"])
    for row in payload["deltas"]:
        rel = row["relative_change"]
        rel_text = f"{rel:+.1%}" if rel is not None else "n/a"
        verdict = "ok" if row["verdict"] == "ok" else row["verdict"].upper()
        lines.append(
            f"  {row['metric']}: {row['a']} -> {row['b']} ({rel_text}, "
            f"{row['rule']}) {verdict}"
        )
    for warning in payload.get("warnings", []):
        lines.append(f"  WARN {warning}")
    lines.append(
        "verdict: significant difference"
        if payload["significant"] else "verdict: no significant difference"
    )
    failures = sum(row["verdict"] == "fail" for row in payload["deltas"])
    if "failed" in payload:
        lines.append(f"gate: FAIL, {failures} metric(s) broke their rule"
                     if failures else "gate: ok")
    if failures:
        # telemetry of both builds turns "the gate is red" into "this
        # span path got slower"
        lines.append(
            "hint: to attribute a timing regression, record --telemetry "
            "on both builds and run 'repro obs diff BASE.jsonl "
            "CURRENT.jsonl': it aligns the span trees and names the paths "
            "with significant self-time deltas"
        )
    return "\n".join(lines)
