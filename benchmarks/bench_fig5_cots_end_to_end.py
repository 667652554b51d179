"""E4 — Figure 5: SRRS mimicked on a COTS GPU by serializing redundant
kernels (``cudaDeviceSynchronize()``).

Regenerates the end-to-end comparison on the GTX-1050-Ti-like analytic
model: baseline vs redundant-serialized execution time for the full
Rodinia suite (the paper averages 100 runs; the model is deterministic).

Paper shape: "for all the benchmarks but two (cfd and streamcluster) the
impact of redundant execution is negligible".
"""

from __future__ import annotations

from repro.analysis.report import render_grouped_bars, render_table
from repro.api import Engine, build_scenario
from repro.gpu.cots import COTSDevice, cots_end_to_end
from repro.workloads.rodinia import get_benchmark


def test_fig5_table(benchmark):
    """Time the end-to-end model and print the full Figure 5 table."""
    device = COTSDevice()
    cfd = get_benchmark("cfd")

    def run_both_variants():
        base = cots_end_to_end(cfd, device)
        red = cots_end_to_end(cfd, device, redundant=True)
        return base.total_ms, red.total_ms

    benchmark(run_both_variants)

    rows = [a.cots
            for a in Engine().run_many(build_scenario("fig5", device=device))]
    table = render_table(
        ["benchmark", "baseline(ms)", "redundant-serialized(ms)", "ratio"],
        [[r.benchmark, r.baseline_ms, r.redundant_ms, r.ratio] for r in rows],
        title="Figure 5 — COTS end-to-end execution time",
    )
    print("\n" + table)
    print(
        "\n"
        + render_grouped_bars(
            [r.benchmark for r in rows],
            {
                "baseline": [r.baseline_ms for r in rows],
                "redundant": [r.redundant_ms for r in rows],
            },
            title="Figure 5 (bars, ms)",
        )
    )

    outliers = {r.benchmark for r in rows if r.ratio > 1.5}
    assert outliers == {"cfd", "streamcluster"}
    assert all(
        r.ratio <= 1.35 for r in rows if r.benchmark not in outliers
    )
