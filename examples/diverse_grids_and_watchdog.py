#!/usr/bin/env python3
"""Future-work demo: structural diversity and non-termination watchdog.

Two mechanisms from the edges of the paper:

* **Diverse kernel generation** (Section IV-A, left as future work): the
  redundant copy executes a reshaped grid (each block split in two), so
  even the *unconstrained default scheduler* cannot produce identical
  corruptions — demonstrated by injecting a permanent fault on an SM both
  copies use.
* **Watchdog supervision** (Section IV-C, outcome 3): a kernel-scheduler
  fault may lose work or never terminate; output comparison cannot see
  what never arrives.  A deadline watchdog budgeted from the analytic
  SRRS bound catches the missing launch within the FTTI.

Run:
    python examples/diverse_grids_and_watchdog.py
"""

from __future__ import annotations

from repro import GPUConfig, KernelDescriptor
from repro.analysis.bounds import srrs_chain_bound
from repro.faults import PermanentSMFault, apply_fault
from repro.gpu.scheduler import SRRSScheduler
from repro.gpu.simulator import GPUSimulator
from repro.iso26262 import Ftti
from repro.redundancy import DeadlineWatchdog, DiverseGridManager
from repro.redundancy.manager import build_redundant_workload

KERNEL = KernelDescriptor(
    name="radar/cfar", grid_blocks=12, threads_per_block=256,
    work_per_block=6000.0, bytes_per_block=1500.0,
)


def demo_diverse_grids(gpu: GPUConfig) -> None:
    print("=== structural diversity (grid reshaping, default scheduler) ===")
    manager = DiverseGridManager(gpu, "default", factor=2)
    clean = manager.run([KERNEL])
    trace = clean.sim.trace
    sm_of = trace.columns.sm
    coarse_sms = {sm_of[row] for row in trace.rows_of(0)}
    fine_sms = {sm_of[row] for row in trace.rows_of(1)}
    shared = coarse_sms & fine_sms
    print(f"coarse copy uses SMs {sorted(coarse_sms)}, "
          f"fine copy (24 blocks) uses {sorted(fine_sms)}; "
          f"shared: {sorted(shared)}")

    fault = PermanentSMFault(sm=min(shared), fault_id=7)
    corruption = apply_fault(fault, trace)
    result = manager.run([KERNEL], corruption=corruption)
    print(
        f"permanent defect on shared SM {fault.sm} corrupts "
        f"{len(corruption)} block executions -> comparison detects the "
        f"mismatch: {result.error_detected} (silent: "
        f"{result.silent_corruption})"
    )
    assert result.error_detected and not result.silent_corruption
    print("identical redundant grids on that SM would have agreed on the "
          "wrong answer; the reshaped copy computes the same values with "
          "a different block structure, so the corruptions differ.\n")


def demo_watchdog(gpu: GPUConfig) -> None:
    print("=== watchdog: detecting lost work (outcome 3) ===")
    launches = build_redundant_workload([KERNEL, KERNEL])
    bound = srrs_chain_bound([KERNEL, KERNEL], gpu)
    watchdog = DeadlineWatchdog.for_workload(launches, bound, margin=1.2)

    healthy = GPUSimulator(gpu, SRRSScheduler()).run(launches).trace
    report = watchdog.check(healthy)
    print(f"healthy run: {report.checked_launches} launches supervised, "
          f"all within the {bound:.0f}-cycle bound x1.2: {report.all_met}")

    # emulate a scheduler fault that dropped the last launch entirely
    lost = launches[-1].instance_id
    crippled = GPUSimulator(gpu, SRRSScheduler()).run(launches[:-1]).trace
    report = watchdog.check(crippled)
    violation = report.violations[0]
    print(f"crippled run: launch {violation.instance_id} missing -> "
          f"non-termination detected: {violation.non_termination}")
    assert lost == violation.instance_id

    timeline = report.timeline(gpu, reaction_ms=5.0)
    timeline.check(Ftti(100.0), context="radar offload")
    print(f"watchdog fires at {timeline.detected_at:.3f} ms, recovery "
          f"completes at {timeline.handled_at:.3f} ms — inside the "
          f"100 ms FTTI")


def main() -> None:
    gpu = GPUConfig.gpgpusim_like()
    demo_diverse_grids(gpu)
    demo_watchdog(gpu)


if __name__ == "__main__":
    main()
