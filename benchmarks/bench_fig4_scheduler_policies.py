"""E3 — Figure 4: scheduler simulations using the GPU timing simulator.

Regenerates the paper's central result: redundant-execution GPU cycles of
the eleven Rodinia benchmarks under the default, HALF and SRRS policies,
normalized to the default scheduler ("Redundant Kernel Simulation Cycles
(GPGPU-Sim normalized)").

Paper shape: HALF negligible for most benchmarks (worst friendly case
~1.1x at lud), SRRS up to ~2x (myocyte); backprop/bfs are the exceptions
where HALF hurts and SRRS is free.
"""

from __future__ import annotations

from repro.analysis.report import render_grouped_bars, render_table
from repro.api import Engine, build_scenario, normalized_busy_cycles
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.rodinia import FIG4_BENCHMARKS, get_benchmark


def test_fig4_table(benchmark, gpu):
    """Time one policy simulation and print the full Figure 4 table."""
    hotspot = get_benchmark("hotspot")

    def run_one_policy():
        return RedundantKernelManager(gpu, "srrs").run(list(hotspot.kernels))

    benchmark.pedantic(run_one_policy, rounds=3, iterations=1)

    artifacts = Engine().run_many(build_scenario("fig4", gpu=gpu))
    by_key = {(a.spec.tag, a.spec.policy): a for a in artifacts}
    ratios = normalized_busy_cycles(artifacts)
    table = render_table(
        ["benchmark", "default(cycles)", "HALF(norm)", "SRRS(norm)",
         "HALF diverse", "SRRS diverse"],
        [
            [name, by_key[(name, "default")].timing.busy_cycles,
             r["half"], r["srrs"],
             by_key[(name, "half")].diversity.fully_diverse,
             by_key[(name, "srrs")].diversity.fully_diverse]
            for name, r in ratios.items()
        ],
        title="Figure 4 — Redundant Kernel Simulation Cycles (normalized)",
    )
    print("\n" + table)
    print(
        "\n"
        + render_grouped_bars(
            list(ratios),
            {
                "default": [1.0] * len(ratios),
                "HALF": [r["half"] for r in ratios.values()],
                "SRRS": [r["srrs"] for r in ratios.values()],
            },
            title="Figure 4 (bars, normalized to default)",
        )
    )

    # shape assertions (mirroring tests/test_integration.py)
    assert set(ratios) == set(FIG4_BENCHMARKS)
    assert max(r["srrs"] for r in ratios.values()) <= 2.0
    assert ratios["myocyte"]["srrs"] > 1.9
    assert all(a.diversity.fully_diverse for a in artifacts
               if a.spec.policy != "default")
