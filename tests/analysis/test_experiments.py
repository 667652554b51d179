"""The paper-figure scenarios run on the Engine (fast, reduced-size configs)."""

from __future__ import annotations

import pytest

from repro.api import (
    Engine,
    FaultPlanSpec,
    build_scenario,
    normalized_busy_cycles,
)

ENGINE = Engine()


def _run(name, **params):
    return ENGINE.run_many(build_scenario(name, **params))


class TestFig4Runner:
    def test_subset_run_shapes(self):
        ratios = normalized_busy_cycles(
            _run("fig4", benchmarks=["myocyte", "nn"]))
        assert list(ratios) == ["myocyte", "nn"]
        assert ratios["myocyte"]["srrs"] > 1.8
        assert ratios["nn"]["half"] == pytest.approx(1.0, abs=0.05)

    def test_policies_always_diverse(self):
        diverse = {a.spec.policy: a.diversity.fully_diverse
                   for a in _run("fig4", benchmarks=["hotspot"])}
        assert diverse["half"]
        assert diverse["srrs"]
        assert not diverse["default"]


class TestFig5Runner:
    def test_all_rows_present(self):
        assert len(_run("fig5")) == 21

    def test_redundant_always_costs_more(self):
        for artifact in _run("fig5"):
            assert artifact.cots.redundant_ms > artifact.cots.baseline_ms
            assert artifact.cots.ratio > 1.0


class TestFig3Runner:
    def test_archetypes_cover_all_categories(self):
        categories = {a.classification[0].category for a in _run("fig3")}
        assert categories == {"short", "heavy", "friendly"}

    def test_recommendations_follow_section_4d(self):
        for artifact in _run("fig3"):
            row = artifact.classification[0]
            if row.category in ("short", "heavy"):
                assert row.recommended_policy == "srrs"
            else:
                assert row.recommended_policy == "half"


class TestCoverageRunner:
    def test_policies_ranked_by_coverage(self):
        config = FaultPlanSpec(transient_ccf=60, permanent_sm=25, seu=25,
                               seed=3)
        by_policy = {a.faults.policy.split("(")[0]: a.faults
                     for a in _run("coverage", benchmark="hotspot",
                                   config=config)}
        assert by_policy["default"].sdc > 0
        assert by_policy["half"].sdc == 0
        assert by_policy["srrs"].sdc == 0


class TestPolicyFit:
    def test_matrix_matches_section_4d(self):
        artifacts = _run("policyfit")
        kinds = {a.spec.tag: a.classification[0] for a in artifacts
                 if a.classification}
        ratios = normalized_busy_cycles(artifacts)
        # short kernels: SRRS strictly better (HALF doubles their time)
        short = [tag for tag, row in kinds.items() if row.category == "short"]
        assert short
        assert all(ratios[tag]["srrs"] < ratios[tag]["half"] for tag in short)
        # the narrow-long friendly kernel: HALF strictly better
        narrow = [tag for tag, row in kinds.items() if "narrow" in row.kernel]
        assert narrow
        assert ratios[narrow[0]]["half"] < ratios[narrow[0]]["srrs"]


class TestSweeps:
    def test_dispatch_latency_sweep_rows(self):
        ratios = normalized_busy_cycles(
            _run("sweep-dispatch", latencies=[1000.0, 5000.0],
                 benchmark="nn"))
        assert list(ratios) == ["nn@1000", "nn@5000"]

    def test_sm_count_sweep_rows(self):
        ratios = normalized_busy_cycles(
            _run("sweep-sms", sm_counts=[4, 8], benchmark="nn"))
        assert list(ratios) == ["nn@4sm", "nn@8sm"]
        for r in ratios.values():
            assert r["half"] > 0 and r["srrs"] > 0
