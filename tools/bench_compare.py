#!/usr/bin/env python3
"""Gate a freshly generated ``BENCH_*.json`` against a committed baseline.

CI's perf-smoke job regenerates every benchmark artifact from scratch and
then calls this tool once per artifact, with the checked-in copy (stashed
before the benches overwrite it) as the baseline.  The comparison is
metric-aware:

* **deterministic metrics** (digests, event/frame/injection counts,
  virtual-time rates, verdicts — everything a correct simulation must
  reproduce exactly) must match bit-for-bit; any drift **fails** the
  gate, because it means the committed artifact no longer describes the
  committed code;
* **throughput metrics** (``*per_sec*``) may regress by at most the
  tolerance (default 20%, the contract from ROADMAP item 5); a larger
  drop **fails** the gate, improvements always pass;
* **speedup ratios** (``speedup*``) get a wider tolerance (default 35%)
  — a ratio of two measured walls is noisier than either wall;
* **wall-clock metrics** (``*_s``) only **warn**: the throughput gate
  already covers sustained slowdowns, and double-gating raw walls makes
  the job flap on loaded runners;
* **CLI start-up walls** (``cli_*_s``: one command in a fresh
  interpreter, a median of several) are the exception: nothing else
  covers them, so they **fail** when slower than the baseline by more
  than the throughput tolerance, while the module counts beside them
  (``cli_*_modules``) are deterministic and must match exactly;
* **overhead fractions** (``*overhead_frac``) are gated against an
  absolute ceiling (default 2%): the benches measure the cost of
  disabled telemetry (the null-sink path) against the uninstrumented
  loop, and a fraction above the limit **fails** the gate regardless of
  the baseline's value — the budget is the contract, not the history;
* scenarios or metrics present on only one side **warn** (a renamed or
  newly added scenario is a review concern, not a perf regression).

Both ``bench-*/v1`` (no ``environment`` object) and ``v2`` artifacts are
accepted; when both sides carry environment metadata and it differs
(python version, platform), the tool warns that the comparison crosses
environments.

Exit codes: ``0`` pass (possibly with warnings), ``1`` regression or
determinism drift, ``2`` unusable input.

Usage::

    python tools/bench_compare.py BASELINE.json CURRENT.json \
        [--tolerance 0.20] [--ratio-tolerance 0.35] [--overhead-limit 0.02]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["classify_metric", "compare_artifacts", "main",
           "DEFAULT_OVERHEAD_LIMIT"]

#: Default allowed relative drop for throughput metrics.
DEFAULT_TOLERANCE = 0.20

#: Default allowed relative drop for speedup-ratio metrics.
DEFAULT_RATIO_TOLERANCE = 0.35

#: Default absolute ceiling for ``*overhead_frac`` metrics: disabled
#: telemetry may cost at most 2% of the uninstrumented loop (the
#: repro.obs null-sink contract).
DEFAULT_OVERHEAD_LIMIT = 0.02


def classify_metric(name: str) -> str:
    """Classify one metric name: deterministic, throughput, ratio, wall,
    CLI start-up wall, overhead fraction or statistical counts.

    ``throughput_fps`` is *virtual-time* throughput (completed frames per
    second of simulated stream time) — a pure function of the spec, so it
    is held to exact equality like the digests, not to a tolerance.
    ``*_events`` / ``*_trials`` count pairs are rate samples: whether a
    drift in them *means* anything is a significance question, so this
    gate only warns and defers the verdict to ``python -m repro
    compare`` (the CI step right after this one).
    """
    if name == "throughput_fps":
        return "exact"
    if "per_sec" in name:
        return "throughput"
    if name.startswith("speedup"):
        return "ratio"
    if name.endswith("overhead_frac"):
        return "overhead"
    if name.startswith("cli_") and name.endswith("_s"):
        return "cli_wall"
    if name.endswith("_s"):
        return "wall"
    if name.endswith(("_events", "_trials")):
        return "counts"
    return "exact"


def _load(path: Path) -> Dict[str, object]:
    """Load one artifact, tolerating schema v1 and v2."""
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "scenarios" not in payload:
        raise ValueError(f"{path}: not a BENCH artifact (no 'scenarios')")
    return payload


def compare_artifacts(baseline: Dict[str, object],
                      current: Dict[str, object],
                      *, tolerance: float = DEFAULT_TOLERANCE,
                      ratio_tolerance: float = DEFAULT_RATIO_TOLERANCE,
                      overhead_limit: float = DEFAULT_OVERHEAD_LIMIT,
                      ) -> Tuple[List[str], List[str]]:
    """Compare two artifact payloads.

    Args:
        baseline: the committed artifact (parsed JSON).
        current: the freshly generated artifact (parsed JSON).
        tolerance: allowed relative drop for throughput metrics.
        ratio_tolerance: allowed relative drop for speedup ratios.
        overhead_limit: absolute ceiling for ``*overhead_frac`` metrics
            (the current value alone is judged — a baseline within
            budget never excuses a current value above it).

    Returns:
        ``(failures, warnings)`` — human-readable findings; the gate
        fails when ``failures`` is non-empty.
    """
    failures: List[str] = []
    warnings: List[str] = []

    base_env = baseline.get("environment")
    cur_env = current.get("environment")
    if base_env is None:
        warnings.append(
            "baseline has no environment metadata (schema v1) — "
            "cross-environment drift cannot be detected"
        )
    elif cur_env is not None and base_env != cur_env:
        warnings.append(
            f"environments differ (baseline {base_env}, current {cur_env})"
            " — timing comparisons cross machines/interpreters"
        )

    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in sorted(set(base_scenarios) - set(cur_scenarios)):
        warnings.append(f"scenario {name!r} missing from current artifact")
    for name in sorted(set(cur_scenarios) - set(base_scenarios)):
        warnings.append(f"scenario {name!r} is new (no baseline)")

    for scenario in sorted(set(base_scenarios) & set(cur_scenarios)):
        base_metrics = base_scenarios[scenario]
        cur_metrics = cur_scenarios[scenario]
        for metric in sorted(set(base_metrics) - set(cur_metrics)):
            warnings.append(f"{scenario}.{metric}: missing from current")
        for metric in sorted(set(cur_metrics) - set(base_metrics)):
            new = cur_metrics[metric]
            if (classify_metric(metric) == "overhead"
                    and isinstance(new, (int, float))
                    and not isinstance(new, bool)
                    and new > overhead_limit):
                # the overhead budget is absolute — it binds even before
                # a baseline exists for the metric
                failures.append(
                    f"{scenario}.{metric}: overhead {new * 100.0:.2f}% "
                    f"exceeds the {overhead_limit * 100.0:.0f}% budget"
                )
            else:
                warnings.append(
                    f"{scenario}.{metric}: new metric (no baseline)"
                )
        for metric in sorted(set(base_metrics) & set(cur_metrics)):
            old = base_metrics[metric]
            new = cur_metrics[metric]
            kind = classify_metric(metric)
            numeric = isinstance(old, (int, float)) and isinstance(
                new, (int, float)
            ) and not isinstance(old, bool) and not isinstance(new, bool)
            if kind in ("throughput", "ratio") and numeric:
                tol = tolerance if kind == "throughput" else ratio_tolerance
                if old > 0 and new < old * (1.0 - tol):
                    failures.append(
                        f"{scenario}.{metric}: {new} is "
                        f"{(1.0 - new / old) * 100.0:.1f}% below baseline "
                        f"{old} (tolerance {tol * 100.0:.0f}%)"
                    )
            elif kind == "overhead" and numeric:
                if new > overhead_limit:
                    failures.append(
                        f"{scenario}.{metric}: overhead {new * 100.0:.2f}% "
                        f"exceeds the {overhead_limit * 100.0:.0f}% budget"
                    )
            elif kind == "cli_wall" and numeric:
                if old > 0 and new > old * (1.0 + tolerance):
                    failures.append(
                        f"{scenario}.{metric}: {new}s is "
                        f"{(new / old - 1.0) * 100.0:.1f}% above baseline "
                        f"{old}s (tolerance {tolerance * 100.0:.0f}%)"
                    )
            elif kind == "wall" and numeric:
                if old > 0 and new > old * (1.0 + tolerance):
                    warnings.append(
                        f"{scenario}.{metric}: wall {new}s vs baseline "
                        f"{old}s (+{(new / old - 1.0) * 100.0:.1f}%)"
                    )
            elif kind == "counts" and numeric:
                if old != new:
                    warnings.append(
                        f"{scenario}.{metric}: count changed {old} -> "
                        f"{new} — significance is judged by "
                        "'python -m repro compare'"
                    )
            else:
                if old != new:
                    failures.append(
                        f"{scenario}.{metric}: deterministic metric "
                        f"changed: baseline {old!r} != current {new!r}"
                    )
    return failures, warnings


def main(argv: List[str] = None) -> int:
    """CLI entry point (see module docstring for the contract)."""
    parser = argparse.ArgumentParser(
        description="Gate a fresh BENCH_*.json against a committed baseline."
    )
    parser.add_argument("baseline", type=Path,
                        help="committed artifact (the gate's reference)")
    parser.add_argument("current", type=Path,
                        help="freshly generated artifact")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative throughput drop "
                             "(default %(default)s)")
    parser.add_argument("--ratio-tolerance", type=float,
                        default=DEFAULT_RATIO_TOLERANCE,
                        help="allowed relative speedup-ratio drop "
                             "(default %(default)s)")
    parser.add_argument("--overhead-limit", type=float,
                        default=DEFAULT_OVERHEAD_LIMIT,
                        help="absolute ceiling for *overhead_frac metrics "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    try:
        baseline = _load(args.baseline)
        current = _load(args.current)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: error: {exc}", file=sys.stderr)
        return 2

    failures, warnings = compare_artifacts(
        baseline, current,
        tolerance=args.tolerance, ratio_tolerance=args.ratio_tolerance,
        overhead_limit=args.overhead_limit,
    )
    for line in warnings:
        print(f"WARN {line}")
    for line in failures:
        print(f"FAIL {line}")
    verdict = "FAIL" if failures else "OK"
    print(
        f"bench-compare: {verdict} — {args.current.name}: "
        f"{len(failures)} failure(s), {len(warnings)} warning(s)"
    )
    if failures:
        # point the investigator at the span-level attribution tool:
        # archived telemetry from both runs turns "the gate is red" into
        # "this span path got slower"
        print(
            "hint: to attribute a timing regression, archive telemetry "
            "from both builds ('repro obs archive') and run "
            "'repro obs diff BASELINE CURRENT' — it aligns the span "
            "trees and names the paths with significant self-time deltas"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
