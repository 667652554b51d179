"""E7 — footnote 1: extension to triple modular redundancy (TMR).

The paper evaluates DMR and notes the approach "could be seamlessly
extended to other redundancy levels (e.g. triple modular redundancy)".
This experiment measures the DMR→TMR overhead under a 3-partition HALF
policy and SRRS, and demonstrates fail-operational recovery: TMR masks a
single corrupted copy by majority vote with zero re-execution, while DMR
must re-execute.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.gpu.kernel import dependent_chain
from repro.gpu.scheduler import DefaultScheduler, HALFScheduler, SRRSScheduler
from repro.gpu.simulator import GPUSimulator
from repro.iso26262.fault_model import Ftti
from repro.redundancy.comparison import build_signature
from repro.redundancy.manager import RedundantKernelManager
from repro.redundancy.modes import (
    RecoveryAction,
    RedundancyMode,
    plan_recovery,
    recovery_timeline,
)
from repro.workloads.rodinia import get_benchmark


def test_tmr_overhead_and_recovery(benchmark, gpu):
    """Time a TMR run, print DMR-vs-TMR overheads and recovery behaviour."""
    bench = get_benchmark("hotspot")
    kernels = list(bench.kernels)

    def tmr_run():
        return RedundantKernelManager(
            gpu, HALFScheduler(partitions=3), copies=3
        ).run(kernels)

    benchmark.pedantic(tmr_run, rounds=3, iterations=1)

    # the non-redundant chain, unconstrained by any policy
    baseline = GPUSimulator(gpu, DefaultScheduler()).run(
        dependent_chain(kernels)
    ).makespan
    rows = []
    for label, policy_factory, copies in (
        ("DMR/half", lambda: HALFScheduler(partitions=2), 2),
        ("TMR/half3", lambda: HALFScheduler(partitions=3), 3),
        ("DMR/srrs", lambda: SRRSScheduler(), 2),
        ("TMR/srrs", lambda: SRRSScheduler(), 3),
    ):
        mgr = RedundantKernelManager(gpu, policy_factory(), copies=copies)
        run = mgr.run(kernels)
        rows.append(
            [label, copies, run.sim.trace.busy_cycles,
             run.sim.trace.busy_cycles / baseline,
             run.diversity.fully_diverse]
        )
    print(
        "\n"
        + render_table(
            ["mode", "copies", "busy cycles", "vs non-redundant",
             "diverse"],
            rows,
            title="E7 — DMR vs TMR overhead (hotspot)",
        )
    )

    # fail-operational demonstration: corrupt one copy of logical kernel 0
    mgr3 = RedundantKernelManager(gpu, HALFScheduler(partitions=3), copies=3)
    corruption = {(1, 0): ("hit",)}  # logical kernel 0, copy 1
    run3 = mgr3.run(kernels, corruption=corruption)
    comparison = run3.comparison_for(0)
    signatures = [build_signature(run3.sim.trace, c, corruption)
                  for c in range(3)]
    action3 = plan_recovery(RedundancyMode.TMR, comparison, signatures)
    assert action3 is RecoveryAction.VOTE_CORRECT

    mgr2 = RedundantKernelManager(gpu, HALFScheduler(), copies=2)
    run2 = mgr2.run(kernels, corruption={(1, 0): ("hit",)})
    action2 = plan_recovery(RedundancyMode.DMR, run2.comparison_for(0))
    assert action2 is RecoveryAction.REEXECUTE

    # both fit a 100 ms FTTI on this workload
    detection_ms = gpu.cycles_to_ms(run2.makespan)
    reexec_ms = gpu.cycles_to_ms(run2.makespan)
    for action in (action2, action3):
        timeline = recovery_timeline(action, detection_ms=detection_ms,
                                     reexecution_ms=reexec_ms)
        timeline.check(Ftti(100.0), context="hotspot offload")
    print(
        f"\nrecovery: TMR={action3.value} (masked at comparison), "
        f"DMR={action2.value} (+{reexec_ms:.3f} ms re-execution), "
        f"both within FTTI=100 ms"
    )
