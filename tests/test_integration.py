"""Integration tests: the paper's headline results hold end to end.

These assert the *shapes* the paper reports (``python -m repro fig4``,
``fig5`` and ``coverage`` print the tables), running the same registered
scenarios on the Engine as those commands and the benchmark harness:

* Figure 4: HALF ~1.0x for most benchmarks (worst non-exception ~1.1x at
  lud); SRRS worst ~2x at myocyte; backprop/bfs are the HALF-hurts
  exceptions with SRRS innocuous.
* Figure 5: redundant-serialized close to baseline everywhere except the
  kernel-dominated cfd and streamcluster.
* Section IV-C: SRRS/HALF give 100 % fault-detection coverage where the
  default scheduler lets common-cause faults escape silently.
* The full safety argument: an ASIL-D goal decomposes onto two ASIL-B GPU
  kernel copies exactly when the schedule is diverse.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Engine,
    FaultPlanSpec,
    build_scenario,
    normalized_busy_cycles,
)
from repro.gpu.config import GPUConfig
from repro.iso26262.asil import Asil
from repro.iso26262.fault_model import Ftti
from repro.iso26262.safety_case import (
    SafetyGoal,
    SafetyRequirement,
    SystemElement,
    check_requirement,
)
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.rodinia import FIG4_BENCHMARKS, get_benchmark


ENGINE = Engine()


@pytest.fixture(scope="module")
def fig4_artifacts():
    return ENGINE.run_many(build_scenario("fig4"))


@pytest.fixture(scope="module")
def fig4_ratios(fig4_artifacts):
    return normalized_busy_cycles(fig4_artifacts)


@pytest.fixture(scope="module")
def fig5_rows():
    return {a.cots.benchmark: a.cots
            for a in ENGINE.run_many(build_scenario("fig5"))}


class TestFigure4Shapes:
    def test_covers_all_eleven_benchmarks(self, fig4_ratios):
        assert set(fig4_ratios) == set(FIG4_BENCHMARKS)

    def test_half_negligible_for_most(self, fig4_ratios):
        # paper: "HALF policy performance overheads are negligible for 9
        # out of the 11 benchmarks analyzed"
        negligible = [
            name for name, r in fig4_ratios.items() if r["half"] <= 1.15
        ]
        assert len(negligible) >= 9

    def test_lud_is_the_half_worst_case_among_friendly(self, fig4_ratios):
        friendly = {
            n: r["half"] for n, r in fig4_ratios.items()
            if n not in ("backprop", "bfs")
        }
        worst = max(friendly, key=friendly.get)
        assert worst == "lud"
        assert 1.05 <= friendly[worst] <= 1.2

    def test_srrs_worst_case_is_myocyte_near_2x(self, fig4_ratios):
        # paper: "performance overheads can be up to 99%" (myocyte)
        srrs = {n: r["srrs"] for n, r in fig4_ratios.items()}
        worst = max(srrs, key=srrs.get)
        assert worst == "myocyte"
        assert 1.9 <= srrs[worst] <= 2.0

    def test_srrs_moderate_elsewhere(self, fig4_ratios):
        for name, r in fig4_ratios.items():
            if name != "myocyte":
                assert r["srrs"] <= 1.3

    def test_backprop_bfs_exceptions(self, fig4_ratios):
        # paper: short kernels needing more than half the SMs — HALF
        # hurts, SRRS is innocuous
        for name in ("backprop", "bfs"):
            r = fig4_ratios[name]
            assert r["half"] > 1.25
            assert r["srrs"] == pytest.approx(1.0, abs=0.02)
            assert r["half"] > r["srrs"]

    def test_no_policy_ever_faster_than_default_by_much(self, fig4_ratios):
        for r in fig4_ratios.values():
            assert r["half"] >= 0.95
            assert r["srrs"] >= 0.95

    def test_policies_always_deliver_diversity(self, fig4_artifacts):
        for a in fig4_artifacts:
            if a.spec.policy != "default":
                assert a.diversity.fully_diverse, (a.spec.tag, a.spec.policy)


class TestFigure5Shapes:
    def test_cfd_and_streamcluster_are_the_outliers(self, fig5_rows):
        ratios = {n: r.ratio for n, r in fig5_rows.items()}
        outliers = {n for n, v in ratios.items() if v > 1.5}
        assert outliers == {"cfd", "streamcluster"}

    def test_everything_else_close_to_baseline(self, fig5_rows):
        for name, row in fig5_rows.items():
            if name not in ("cfd", "streamcluster"):
                assert row.ratio <= 1.35

    def test_redundancy_never_free(self, fig5_rows):
        for row in fig5_rows.values():
            assert row.redundant_ms > row.baseline_ms


class TestFaultCoverageHeadline:
    def test_policies_close_the_ccf_hole(self):
        config = FaultPlanSpec(transient_ccf=120, permanent_sm=40, seu=40,
                               seed=11)
        rows = {a.faults.policy.split("(")[0]: a.faults
                for a in ENGINE.run_many(
                    build_scenario("coverage", config=config))}
        assert rows["default"].detection_coverage < 1.0
        assert rows["half"].detection_coverage == 1.0
        assert rows["srrs"].detection_coverage == 1.0


class TestEndToEndSafetyArgument:
    """From measured diversity to an ASIL-D decomposition claim."""

    def _gpu_copy_elements(self, independent: bool):
        a = SystemElement("gpu-copy-0", standalone_asil=Asil.B,
                          redundant_with="gpu-copy-1",
                          independent_of_peer=independent)
        b = SystemElement("gpu-copy-1", standalone_asil=Asil.B,
                          redundant_with="gpu-copy-0",
                          independent_of_peer=independent)
        return {"gpu-copy-0": a, "gpu-copy-1": b}

    @pytest.mark.parametrize("policy", ["srrs", "half"])
    def test_diverse_schedule_supports_asil_d_claim(self, policy):
        gpu = GPUConfig.gpgpusim_like()
        bench = get_benchmark("hotspot")
        run = RedundantKernelManager(gpu, policy).run(list(bench.kernels))
        independent = run.diversity.fully_diverse
        assert independent

        goal = SafetyGoal("correct object list", Asil.D, Ftti(100.0))
        req = SafetyRequirement(
            "REQ-OBJ-1", goal,
            allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
        )
        check_requirement(req, self._gpu_copy_elements(independent))

    def test_default_schedule_cannot_support_asil_d(self):
        from repro.errors import SafetyViolation

        gpu = GPUConfig.gpgpusim_like()
        bench = get_benchmark("hotspot")
        run = RedundantKernelManager(gpu, "default").run(list(bench.kernels))
        independent = run.diversity.fully_diverse
        assert not independent

        goal = SafetyGoal("correct object list", Asil.D, Ftti(100.0))
        req = SafetyRequirement(
            "REQ-OBJ-1", goal,
            allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
        )
        with pytest.raises(SafetyViolation):
            check_requirement(req, self._gpu_copy_elements(independent))
