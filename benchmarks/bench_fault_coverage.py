"""E5 — fault-injection coverage per scheduling policy.

The paper argues (Section IV-C) that SRRS and HALF achieve diverse
redundancy *by construction*.  This extension experiment tests the claim:
a campaign of transient common-cause faults (chip-wide voltage droops),
permanent SM defects and local SEUs is injected into redundant executions
under each policy, and outcomes are classified as masked / detected /
silent data corruption (SDC).

Expected: the default scheduler exhibits SDC (redundant copies corrupted
identically); SRRS and HALF detect 100 % of dangerous faults.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.api import (
    CampaignSpec,
    Engine,
    FaultPlanSpec,
    GPUSpec,
    RunSpec,
    WorkloadSpec,
    build_scenario,
)
from repro.campaigns import run_campaign

PLAN = FaultPlanSpec(transient_ccf=400, permanent_sm=100, seu=200,
                     seed=2019)


def test_fault_coverage_table(benchmark, gpu):
    """Time one full campaign and print the per-policy coverage table."""
    spec = CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    gpu=GPUSpec.from_config(gpu), policy="srrs"),
        faults=PLAN,
    )

    benchmark(lambda: run_campaign(spec))

    rows = [a.faults for a in Engine().run_many(
        build_scenario("coverage", gpu=gpu, benchmark="hotspot",
                       config=PLAN))]
    print(
        "\n"
        + render_table(
            ["policy", "injections", "masked", "detected", "SDC",
             "coverage"],
            [[r.policy, r.total, r.masked, r.detected, r.sdc,
              r.detection_coverage] for r in rows],
            title="E5 — Fault-detection coverage by scheduling policy "
                  "(hotspot, 700 injections)",
        )
    )

    by_policy = {r.policy.split("(")[0]: r for r in rows}
    assert by_policy["default"].sdc > 0
    assert by_policy["half"].detection_coverage == 1.0
    assert by_policy["srrs"].detection_coverage == 1.0
