"""E9 — ablations: dispatch latency and SM-count sweeps.

Two design knobs the paper's results implicitly depend on:

* the host→GPU **dispatch latency** is the source of the "natural"
  staggering between redundant kernels (Section IV-A) and decides which
  kernels are *short*;
* the **SM count** (6 in both of the paper's platforms) scales the
  HALF partitions and SRRS's utilization loss.

The sweeps show the policies' overheads are stable across both knobs for
a friendly benchmark — i.e. the paper's conclusions are not an artifact
of the specific 6-SM / fixed-latency configuration.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.api import Engine, build_scenario, normalized_busy_cycles

LATENCIES = [500.0, 1500.0, 3000.0, 6000.0, 12000.0]
SM_COUNTS = [2, 4, 6, 8, 12, 16]


def _sweep(scenario, knob, values, gpu):
    """``(value, half_ratio, srrs_ratio)`` rows of one hotspot sweep."""
    ratios = normalized_busy_cycles(Engine().run_many(
        build_scenario(scenario, benchmark="hotspot", gpu=gpu,
                       **{knob: values})))
    return [(value, r["half"], r["srrs"])
            for value, r in zip(values, ratios.values())]


def test_dispatch_latency_ablation(benchmark, gpu):
    """Sweep the serial-dispatch gap; print normalized overheads."""
    rows = benchmark.pedantic(
        lambda: _sweep("sweep-dispatch", "latencies", LATENCIES, gpu),
        rounds=1, iterations=1,
    )
    print(
        "\n"
        + render_table(
            ["dispatch latency (cycles)", "HALF(norm)", "SRRS(norm)"],
            rows,
            title="E9a — Policy overhead vs dispatch latency (hotspot)",
        )
    )
    for _, half_ratio, srrs_ratio in rows:
        assert half_ratio <= 1.15
        assert srrs_ratio <= 1.15


def test_sm_count_ablation(benchmark, gpu):
    """Sweep the SM count; print normalized overheads."""
    rows = benchmark.pedantic(
        lambda: _sweep("sweep-sms", "sm_counts", SM_COUNTS, gpu),
        rounds=1, iterations=1,
    )
    print(
        "\n"
        + render_table(
            ["SMs", "HALF(norm)", "SRRS(norm)"],
            rows,
            title="E9b — Policy overhead vs SM count (hotspot)",
        )
    )
    for _, half_ratio, srrs_ratio in rows:
        assert half_ratio <= 1.35
        assert srrs_ratio <= 1.35
