"""E10 — ablation: which ingredient of diversity buys what.

Decomposes the paper's diverse-redundancy argument into its mechanisms
and measures each one's fault-detection coverage:

* **default** — plain redundancy, no control (the paper's baseline);
* **staggered** — enforced temporal stagger only (where, uncontrolled):
  defeats transient CCFs, leaks permanent same-SM faults;
* **half / srrs** — the paper's policies (when AND where): full coverage;
* **diverse-grid** (the paper's future work, Section IV-A) — structural
  diversity via grid reshaping under the *default* scheduler: full
  coverage without any scheduler modification, at the cost of grid
  divisibility constraints and a result-reduction step.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.api import FaultPlanSpec
from repro.campaigns.runner import classify_shard, fold_report
from repro.campaigns.sharding import Shard
from repro.faults import (
    FaultCampaign,
    FaultOutcome,
    PermanentSMFault,
    TransientCCF,
    apply_fault,
)
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.scheduler import StaggeredScheduler
from repro.redundancy.diverse_kernels import DiverseGridManager
from repro.redundancy.manager import RedundantKernelManager

KERNEL = KernelDescriptor(
    name="ablation/friendly", grid_blocks=12, threads_per_block=256,
    work_per_block=6000.0, bytes_per_block=1000.0,
)
PLAN = FaultPlanSpec(transient_ccf=300, permanent_sm=100, seu=100,
                     seed=2019)


def _campaign(run):
    """``PLAN``'s whole population against ``run``, on the shard path."""
    shard = Shard(index=0, start=0, stop=PLAN.total_injections)
    return fold_report([classify_shard(FaultCampaign(run), PLAN, shard)])


def _campaign_row(gpu, label, policy):
    run = RedundantKernelManager(gpu, policy).run([KERNEL, KERNEL])
    report = _campaign(run)
    transient_sdc = report.by_kind["TransientCCF"].get(FaultOutcome.SDC, 0)
    permanent_sdc = report.by_kind["PermanentSMFault"].get(FaultOutcome.SDC, 0)
    return (
        [label, transient_sdc, permanent_sdc, report.sdc,
         report.detection_coverage],
        report,
    )


def _diverse_grid_row(gpu):
    """Manual mini-campaign for the structurally-diverse configuration."""
    manager = DiverseGridManager(gpu, "default", factor=2)
    clean = manager.run([KERNEL, KERNEL])
    trace = clean.sim.trace
    import random

    rng = random.Random(PLAN.seed)
    transient_sdc = permanent_sdc = dangerous = detected = 0
    for fid in range(PLAN.transient_ccf):
        fault = TransientCCF(time=rng.uniform(0, trace.makespan), fault_id=fid,
                             work_per_block=KERNEL.work_per_block)
        corruption = apply_fault(fault, trace)
        if not corruption:
            continue
        result = manager.run([KERNEL, KERNEL], corruption=corruption)
        dangerous += 1
        if result.error_detected:
            detected += 1
        elif result.silent_corruption:
            transient_sdc += 1
    for fid in range(PLAN.permanent_sm):
        fault = PermanentSMFault(sm=rng.randrange(trace.num_sms),
                                 fault_id=10_000 + fid,
                                 since=rng.uniform(0, trace.makespan * 0.5))
        corruption = apply_fault(fault, trace)
        if not corruption:
            continue
        result = manager.run([KERNEL, KERNEL], corruption=corruption)
        dangerous += 1
        if result.error_detected:
            detected += 1
        elif result.silent_corruption:
            permanent_sdc += 1
    coverage = 1.0 if dangerous == 0 else detected / dangerous
    return ["diverse-grid(default)", transient_sdc, permanent_sdc,
            transient_sdc + permanent_sdc, coverage]


def test_diversity_mechanism_ablation(benchmark, gpu):
    """Time one campaign; print the mechanism-coverage table."""
    run = RedundantKernelManager(gpu, "staggered").run([KERNEL, KERNEL])
    benchmark(lambda: _campaign(run))

    rows = []
    for label, policy in (
        ("default (plain redundancy)", "default"),
        ("staggered (when only)", StaggeredScheduler(min_stagger=4000.0)),
        ("half (when + where)", "half"),
        ("srrs (when + where)", "srrs"),
    ):
        row, _report = _campaign_row(gpu, label, policy)
        rows.append(row)
    rows.append(_diverse_grid_row(gpu))

    print(
        "\n"
        + render_table(
            ["mechanism", "transient SDC", "permanent SDC", "total SDC",
             "coverage"],
            rows,
            title="E10 — Fault coverage per diversity mechanism "
                  f"({PLAN.transient_ccf}+{PLAN.permanent_sm}+"
                  f"{PLAN.seu} injections)",
        )
    )

    by_label = {r[0]: r for r in rows}
    assert by_label["default (plain redundancy)"][3] > 0
    assert by_label["staggered (when only)"][1] == 0      # transients closed
    assert by_label["staggered (when only)"][2] > 0       # permanents leak
    assert by_label["half (when + where)"][3] == 0
    assert by_label["srrs (when + where)"][3] == 0
    assert by_label["diverse-grid(default)"][3] == 0      # future work works
