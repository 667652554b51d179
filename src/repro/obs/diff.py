"""Cross-run telemetry diffing: span-tree deltas with significance.

``repro obs diff A B`` aligns two runs' span forests by *path* (the
``/``-joined chain of span names) and compares per-occurrence **self
times** — a span's duration minus its closed children's — so a
regression is attributed to the phase that actually slowed down, not
to every ancestor above it.  Heartbeat counters are compared as final
totals and per-second rates, making throughput drift visible next to
the span deltas.

Statistical guardrail: with at least two occurrences per side, the
delta of mean self times gets a Welch normal interval at the requested
confidence (:func:`repro.stats.intervals.welch_interval`); a path is
*significant* only when that interval excludes zero **and** the delta
clears the absolute/relative magnitude floors, so one noisy shard
doesn't page anyone.  Single-occurrence paths fall back to the
magnitude floors alone (``method: "threshold"``).

Exit-code contract mirrors ``repro compare``: 0 — no significant
difference, 1 — at least one, 2 — misuse (unreadable input, unknown
run id).  The JSON payload is schema-tagged :data:`OBS_DIFF_SCHEMA`.
This is the span-level attribution layer behind
``tools/bench_compare.py``: when a ``BENCH_*`` gate fails, diff the
two runs' archived telemetry to see *which phase* regressed.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.report import SpanNode, build_spans
from repro.stats.intervals import welch_interval

__all__ = [
    "DEFAULT_MIN_ABS_MS",
    "DEFAULT_MIN_REL",
    "OBS_DIFF_SCHEMA",
    "diff_events",
    "render_diff",
]

#: Schema tag of the ``repro obs diff --json`` payload.
OBS_DIFF_SCHEMA = "repro-obs-diff/v1"

#: Relative self-time change below which a path is never significant.
DEFAULT_MIN_REL = 0.10

#: Absolute self-time change (ms) below which a path is never
#: significant — sub-millisecond jitter is noise on every platform.
DEFAULT_MIN_ABS_MS = 1.0


def _self_samples(events: List[Dict[str, Any]]
                  ) -> Dict[str, List[float]]:
    """Per-path lists of per-occurrence self times, first-open order."""
    samples: Dict[str, List[float]] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        if node.dur_ms is not None:
            child_ms = sum(c.dur_ms for c in node.children
                           if c.dur_ms is not None)
            samples.setdefault(path, []).append(
                max(0.0, node.dur_ms - child_ms)
            )
        for child in node.children:
            visit(child, path)

    for node in build_spans(events):
        visit(node, "")
    return samples


def _stream_stats(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Session count, event count, elapsed ms and final counters."""
    sessions = 0
    elapsed = 0.0
    session_last = 0.0
    counters: Dict[str, float] = {}
    session_counters: Dict[str, float] = {}

    def fold_session() -> None:
        nonlocal elapsed
        elapsed += session_last
        for name, value in session_counters.items():
            counters[name] = counters.get(name, 0.0) + value

    for event in events:
        etype = event.get("type")
        t_ms = event.get("t_ms")
        if isinstance(t_ms, (int, float)) and not isinstance(t_ms, bool):
            session_last = float(t_ms)
        if etype == "telemetry_start":
            if sessions:
                fold_session()
            sessions += 1
            session_last = 0.0
            session_counters = {}
        elif etype == "heartbeat":
            snapshot = event.get("data", {}).get("metrics", {})
            raw = snapshot.get("counters", {})
            if isinstance(raw, dict):
                session_counters = {
                    str(k): float(v) for k, v in raw.items()
                    if isinstance(v, (int, float))
                    and not isinstance(v, bool)
                }
    fold_session()
    return {
        "sessions": sessions,
        "events": len(events),
        "elapsed_ms": round(elapsed, 3),
        "counters": counters,
    }


def _span_rows(samples_a: Dict[str, List[float]],
               samples_b: Dict[str, List[float]], *,
               confidence: float, min_rel: float,
               min_abs_ms: float) -> List[Dict[str, Any]]:
    """One aligned comparison row per span path (A order, then B-only)."""
    paths = list(samples_a)
    paths.extend(p for p in samples_b if p not in samples_a)
    rows: List[Dict[str, Any]] = []
    for path in paths:
        a = samples_a.get(path, [])
        b = samples_b.get(path, [])
        total_a = sum(a)
        total_b = sum(b)
        delta = total_b - total_a
        row: Dict[str, Any] = {
            "path": path,
            "count_a": len(a),
            "count_b": len(b),
            "self_ms_a": round(total_a, 3),
            "self_ms_b": round(total_b, 3),
            "delta_ms": round(delta, 3),
            "relative": (round(delta / total_a, 4) if total_a > 0
                         else None),
        }
        if not a or not b:
            row["method"] = "presence"
            row["verdict"] = "only_b" if not a else "only_a"
            row["significant"] = max(total_a, total_b) >= min_abs_ms
            rows.append(row)
            continue
        interval = welch_interval(a, b, confidence=confidence)
        if interval is None:
            row["method"] = "threshold"
            stat_significant = True
        else:
            low, high = round(interval[0], 6), round(interval[1], 6)
            row["method"] = "welch-z"
            row["interval"] = {"low": low, "high": high,
                               "confidence": confidence}
            stat_significant = low > 0 or high < 0
        magnitude = (abs(delta) >= min_abs_ms
                     and (total_a <= 0
                          or abs(delta) / total_a >= min_rel))
        row["significant"] = stat_significant and magnitude
        if not row["significant"]:
            row["verdict"] = "unchanged"
        else:
            row["verdict"] = "regression" if delta > 0 else "improvement"
        rows.append(row)
    return rows


def _counter_rows(stats_a: Dict[str, Any], stats_b: Dict[str, Any]
                  ) -> List[Dict[str, Any]]:
    """Final-value and rate comparison rows for heartbeat counters."""
    counters_a = stats_a["counters"]
    counters_b = stats_b["counters"]
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(counters_a) | set(counters_b)):
        a = counters_a.get(name, 0.0)
        b = counters_b.get(name, 0.0)
        rate_a = (a / (stats_a["elapsed_ms"] / 1000.0)
                  if stats_a["elapsed_ms"] > 0 else 0.0)
        rate_b = (b / (stats_b["elapsed_ms"] / 1000.0)
                  if stats_b["elapsed_ms"] > 0 else 0.0)
        rows.append({
            "name": name,
            "a": a,
            "b": b,
            "delta": b - a,
            "rate_a": round(rate_a, 3),
            "rate_b": round(rate_b, 3),
            "rate_delta": round(rate_b - rate_a, 3),
            "drift": a != b,
        })
    return rows


def diff_events(events_a: List[Dict[str, Any]],
                events_b: List[Dict[str, Any]], *,
                label_a: str = "A", label_b: str = "B",
                confidence: float = 0.95,
                min_rel: float = DEFAULT_MIN_REL,
                min_abs_ms: float = DEFAULT_MIN_ABS_MS) -> Dict[str, Any]:
    """Compare two parsed telemetry streams; return the diff payload.

    Args:
        events_a: baseline stream (e.g. from
            :meth:`repro.obs.store.ObsStore.load_events`).
        events_b: candidate stream.
        label_a: display label for the baseline.
        label_b: display label for the candidate.
        confidence: Welch-interval confidence for per-path mean self
            times (paths with >= 2 occurrences on both sides).
        min_rel: relative self-time floor below which a path is never
            significant.
        min_abs_ms: absolute floor (milliseconds), likewise.

    Returns:
        The :data:`OBS_DIFF_SCHEMA` dict: per-path span rows, counter
        rows, the significant regression paths, and the overall
        ``significant`` verdict (span regressions/improvements, missing
        paths, or deterministic-counter drift).

    Raises:
        StatsError: for a confidence outside ``(0, 1)``.
    """
    stats_a = _stream_stats(events_a)
    stats_b = _stream_stats(events_b)
    spans = _span_rows(
        _self_samples(events_a), _self_samples(events_b),
        confidence=confidence, min_rel=min_rel, min_abs_ms=min_abs_ms,
    )
    counters = _counter_rows(stats_a, stats_b)
    regressions = [row["path"] for row in spans if row["significant"]
                   and row["verdict"] in ("regression", "only_b")]
    significant = (any(row["significant"] for row in spans)
                   or any(row["drift"] for row in counters))
    side_a = {"label": label_a, "sessions": stats_a["sessions"],
              "events": stats_a["events"],
              "elapsed_ms": stats_a["elapsed_ms"]}
    side_b = {"label": label_b, "sessions": stats_b["sessions"],
              "events": stats_b["events"],
              "elapsed_ms": stats_b["elapsed_ms"]}
    return {
        "schema": OBS_DIFF_SCHEMA,
        "a": side_a,
        "b": side_b,
        "params": {"confidence": confidence, "min_rel": min_rel,
                   "min_abs_ms": min_abs_ms},
        "spans": spans,
        "counters": counters,
        "regressions": regressions,
        "significant": significant,
    }


def render_diff(payload: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_events` payload."""
    lines: List[str] = []
    a = payload["a"]
    b = payload["b"]
    lines.append(
        f"Telemetry diff ({payload['schema']}) — "
        f"A: {a['label']} ({a['sessions']} session(s), "
        f"{a['events']} event(s)) vs "
        f"B: {b['label']} ({b['sessions']} session(s), "
        f"{b['events']} event(s))"
    )
    if payload["spans"]:
        lines.append("spans (self time per path):")
        for row in payload["spans"]:
            mark = "*" if row["significant"] else " "
            rel = (f" ({row['relative']:+.1%})"
                   if row.get("relative") is not None else "")
            lines.append(
                f" {mark} {row['path']:<40} "
                f"{row['self_ms_a']:>10.1f} -> {row['self_ms_b']:>10.1f} ms"
                f"  Δ{row['delta_ms']:+.1f} ms{rel}  [{row['verdict']}]"
            )
    drifting = [row for row in payload["counters"] if row["drift"]]
    if payload["counters"]:
        lines.append("heartbeat counters (final value, rate/s):")
        for row in payload["counters"]:
            mark = "*" if row["drift"] else " "
            lines.append(
                f" {mark} {row['name']:<24} "
                f"{row['a']:g} -> {row['b']:g}"
                f"  ({row['rate_a']:g}/s -> {row['rate_b']:g}/s)"
            )
    significant_spans = [r for r in payload["spans"] if r["significant"]]
    if payload["significant"]:
        lines.append(
            f"verdict: {len(significant_spans)} significant span "
            f"path(s), {len(drifting)} drifting counter(s)"
        )
    else:
        lines.append("verdict: no significant difference")
    return "\n".join(lines)
