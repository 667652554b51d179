"""E8 — Section IV-C: consequences of kernel-scheduler faults.

Injects placement faults into the (unprotected) global kernel scheduler
and classifies each run into the paper's three outcome classes:

1. functionally correct and still diverse — no failure;
2. functionally correct but diversity lost — latent, must be caught by
   the periodic scheduler test;
3. functional misbehaviour — detected through differing outputs.

Also demonstrates the periodic test itself: every class-2 run is exposed
by the placement audit.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.faults.scheduler_faults import (
    FaultySchedulerWrapper,
    SchedulerFault,
    SchedulerFaultKind,
    SchedulerFaultOutcome,
    audit_placement,
    classify_scheduler_fault,
)
from repro.gpu.scheduler import HALFScheduler, SRRSScheduler
from repro.gpu.simulator import GPUSimulator
from repro.redundancy.manager import (
    RedundantKernelManager,
    build_redundant_workload,
)
from repro.workloads.rodinia import get_benchmark


def _inject(gpu, kernels, inner_factory, fault):
    wrapper = FaultySchedulerWrapper(inner_factory(), fault)
    run = RedundantKernelManager(gpu, wrapper).run(kernels)
    return run


def test_scheduler_fault_outcomes(benchmark, gpu):
    """Time one faulty run; print the outcome-classification table."""
    kernels = list(get_benchmark("hotspot").kernels)
    pin_fault = SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=0)

    benchmark.pedantic(
        lambda: _inject(gpu, kernels, HALFScheduler, pin_fault),
        rounds=3, iterations=1,
    )

    scenarios = [
        ("srrs + misplace(copy1)",
         SRRSScheduler,
         SchedulerFault(kind=SchedulerFaultKind.MISPLACE, target_instance=1)),
        ("half + misplace(copy0)",
         HALFScheduler,
         SchedulerFault(kind=SchedulerFaultKind.MISPLACE, target_instance=0)),
        ("half + pin-all-to-SM0",
         HALFScheduler,
         pin_fault),
        ("srrs + pin-all-to-SM0",
         SRRSScheduler,
         SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=0)),
    ]
    rows = []
    audited = []
    for label, factory, fault in scenarios:
        run = _inject(gpu, kernels, factory, fault)
        outcome = classify_scheduler_fault(run)
        # periodic scheduler test (Section IV-C): placement audit
        launches = build_redundant_workload(kernels)
        observed = GPUSimulator(
            gpu, FaultySchedulerWrapper(factory(), fault)
        ).run(launches).trace
        deviations = audit_placement(observed, gpu, factory(), launches)
        rows.append([label, outcome.value, deviations])
        audited.append((outcome, deviations))
    print(
        "\n"
        + render_table(
            ["scenario", "outcome class", "audit deviations"],
            rows,
            title="E8 — Kernel-scheduler fault outcomes (Section IV-C)",
        )
    )

    outcomes = [o for o, _ in audited]
    # all three behaviour classes must actually occur across scenarios
    assert SchedulerFaultOutcome.CORRECT_NOT_DIVERSE in outcomes
    # and every diversity-losing fault is caught by the periodic test
    for outcome, deviations in audited:
        if outcome is SchedulerFaultOutcome.CORRECT_NOT_DIVERSE:
            assert deviations, "latent scheduler fault escaped the audit"
