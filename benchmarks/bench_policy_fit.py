"""E6 — Section IV-D: appropriateness of the scheduling policies.

Measures each policy's overhead per kernel category and checks the
paper's recommendation matrix: SRRS for short and heavy kernels, HALF for
friendly kernels (decided per kernel during the analysis phase and
selected at operation time).
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.api import Engine, build_scenario, normalized_busy_cycles
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.synthetic import make_short_kernel


def test_policy_fit_matrix(benchmark, gpu):
    """Time one redundant run and print the policy-fit matrix."""
    short = make_short_kernel(gpu)

    benchmark(lambda: RedundantKernelManager(gpu, "half").run([short]))

    artifacts = Engine().run_many(build_scenario("policyfit", gpu=gpu))
    kinds = {a.spec.tag: a.classification[0] for a in artifacts
             if a.classification}
    ratios = normalized_busy_cycles(artifacts)
    print(
        "\n"
        + render_table(
            ["kernel", "category", "HALF(norm)", "SRRS(norm)", "best"],
            [[kinds[tag].kernel, kinds[tag].category, r["half"], r["srrs"],
              "half" if r["half"] < r["srrs"] else "srrs"]
             for tag, r in ratios.items()],
            title="E6 — Policy fit per kernel category (Section IV-D)",
        )
    )

    for tag, r in ratios.items():
        if kinds[tag].category == "short":
            # HALF doubles short-wide kernels; SRRS is free
            assert r["srrs"] < r["half"]
        if "narrow" in kinds[tag].kernel:
            # the myocyte-like case: serialization doubles time
            assert r["srrs"] > 1.8
            assert r["half"] < 1.05
