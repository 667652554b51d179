"""Stream-level measurements (the ``BENCH_streams.json`` rows).

Sweeps the arrival rate of one stream spec and summarises each operating
point — throughput, utilisation, deadline-miss and drop rates, tail
latency — into plain rows for tables and the benchmark artifact.  The
determinism contract rides along: every row records the stream's report
digest, so regenerating a sweep proves bit-stability of the whole
operating curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.api.stream import StreamSpec
from repro.streams.report import StreamReport
from repro.streams.runner import run_stream

__all__ = ["StreamRateRow", "arrival_rate_sweep", "stream_summary_rows"]


@dataclass(frozen=True)
class StreamRateRow:
    """One operating point of an arrival-rate sweep.

    Attributes:
        period_ms: arrival period of this point.
        arrival_hz: mean arrival rate (``1000 / period_ms``).
        frames: frames generated.
        completed: frames executed to completion.
        dropped: frames rejected by backpressure.
        miss_rate: deadline misses over completed frames.
        drop_rate: drops over generated frames.
        p_tail_ms: the highest tracked latency quantile (milliseconds).
        throughput_fps: completed frames per second of stream time.
        utilisation: server busy fraction.
        digest: the stream report's digest (determinism evidence).
    """

    period_ms: float
    arrival_hz: float
    frames: int
    completed: int
    dropped: int
    miss_rate: float
    drop_rate: float
    p_tail_ms: float
    throughput_fps: float
    utilisation: float
    digest: str


def arrival_rate_sweep(spec: StreamSpec, periods_ms: Sequence[float], *,
                       frames: Optional[int] = None,
                       workers: int = 1) -> List[StreamRateRow]:
    """Run the same stream at several arrival periods.

    Args:
        spec: the base stream (its own arrival period is replaced point
            by point; jitter scales are kept).
        periods_ms: arrival periods to sweep, typically from
            under-loaded to saturated.
        frames: optional frame-count override for every point.
        workers: forwarded to :func:`repro.streams.runner.run_stream`.

    Returns:
        One :class:`StreamRateRow` per period, in the given order.
    """
    rows: List[StreamRateRow] = []
    for period in periods_ms:
        jitter = min(spec.arrival.jitter_ms, period / 2)
        point = replace(
            spec,
            arrival=replace(spec.arrival, period_ms=period,
                            jitter_ms=jitter),
            frames=frames if frames is not None else spec.frames,
        )
        report = run_stream(point, workers=workers)
        tail_keys = [k for k in report.latency_ms if k.startswith("p")]
        rows.append(
            StreamRateRow(
                period_ms=period,
                arrival_hz=1000.0 / period,
                frames=report.frames,
                completed=report.completed,
                dropped=report.dropped,
                miss_rate=report.miss_rate,
                drop_rate=report.drop_rate,
                p_tail_ms=(report.latency_ms[tail_keys[-1]] if tail_keys
                           else 0.0),
                throughput_fps=report.throughput_fps,
                utilisation=report.utilisation,
                digest=report.digest(),
            )
        )
    return rows


def stream_summary_rows(report: StreamReport) -> List[List[object]]:
    """Key/value rows of one report for ``render_table``."""
    rows: List[List[object]] = [
        ["stream", report.label],
        ["policy", report.policy],
        ["frames", report.frames],
        ["completed", report.completed],
        ["dropped", report.dropped],
        ["deadline (ms)", report.deadline_ms],
        ["deadline misses", report.deadline_misses],
        ["safe rate", f"{report.safe_rate:.4f}"],
        ["throughput (fps)", f"{report.throughput_fps:.2f}"],
        ["utilisation", f"{report.utilisation:.4f}"],
        ["elapsed (ms)", f"{report.elapsed_ms:.3f}"],
    ]
    for key in sorted(report.latency_ms):
        if key.startswith("p") or key in ("mean", "max"):
            rows.append([f"latency {key} (ms)",
                         f"{report.latency_ms[key]:.4f}"])
    faults = report.faults
    if faults.injected:
        rows.append(["faults injected", faults.injected])
        rows.append(["faults detected", faults.detected])
        rows.append(["faults sdc", faults.sdc])
        rows.append(["re-executions", faults.re_executions])
    rows.append(["digest", report.digest()])
    return rows
