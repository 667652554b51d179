"""E2 — Figure 3: kernel categories based on their overlapping.

Regenerates the paper's taxonomy with synthetic archetypes (short, heavy,
friendly, plus the narrow-long myocyte-like case), measuring the achieved
redundant-pair overlap under the unconstrained default policy, and prints
the Section IV-D policy recommendation per category.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.api import Engine, build_scenario
from repro.workloads.classify import classify_kernel
from repro.workloads.synthetic import make_friendly_kernel


def test_fig3_categories_table(benchmark, gpu):
    """Time one classification and print the Figure 3 table."""
    friendly = make_friendly_kernel(gpu)

    benchmark(lambda: classify_kernel(friendly, gpu))

    rows = [a.classification[0]
            for a in Engine().run_many(build_scenario("fig3", gpu=gpu))]
    print(
        "\n"
        + render_table(
            ["kernel", "category", "isolated(cycles)", "overlap",
             "residency", "policy"],
            [
                [r.kernel, r.category, r.isolated_cycles,
                 r.overlap_fraction, r.resident_fraction,
                 r.recommended_policy]
                for r in rows
            ],
            title="Figure 3 — Kernel categories based on their overlapping",
        )
    )

    categories = {r.category for r in rows}
    assert categories == {"short", "heavy", "friendly"}
    for r in rows:
        expected = "srrs" if r.category in ("short", "heavy") else "half"
        assert r.recommended_policy == expected
