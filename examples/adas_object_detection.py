#!/usr/bin/env python3
"""ADAS camera-pipeline example: the paper's five-step offload protocol.

Models the workload the paper's introduction motivates: an autonomous-
driving perception pipeline (preprocess → detect → track) offloaded from
an ASIL-D DCLS microcontroller to the GPU, once per camera frame, with a
100 ms fault-tolerant time interval (FTTI).

Each frame launches every kernel twice under the HALF policy and compares
the copies' outputs (:class:`~repro.redundancy.manager.RedundantKernelManager`).
The frame time is the simulated GPU makespan plus the host-side protocol
cost of the COTS device model: allocating and transferring per-copy
buffers, launching, collecting both results and comparing them on the
lockstep cores (:func:`~repro.gpu.cots.protocol_overhead_ms`).  The
example then injects a voltage-droop CCF into one frame to show detection
and in-FTTI recovery by re-execution.

Run:
    python examples/adas_object_detection.py
"""

from __future__ import annotations

from repro import GPUConfig, KernelDescriptor, RedundantKernelManager
from repro.faults import TransientCCF, apply_fault
from repro.gpu.cots import COTSDevice, protocol_overhead_ms
from repro.iso26262 import Ftti
from repro.redundancy.modes import (
    RecoveryAction,
    RedundancyMode,
    plan_recovery,
    recovery_timeline,
)

#: The perception kernel chain of one camera frame.
PIPELINE = [
    KernelDescriptor(
        name="perception/preprocess", grid_blocks=24, threads_per_block=256,
        work_per_block=1500.0, bytes_per_block=4000.0,
        input_bytes=2 * 1920 * 1080, output_bytes=1 << 20,
    ),
    KernelDescriptor(
        name="perception/detect", grid_blocks=36, threads_per_block=256,
        work_per_block=6000.0, bytes_per_block=2500.0,
        shared_mem_per_block=8192, output_bytes=1 << 16,
    ),
    KernelDescriptor(
        name="perception/track", grid_blocks=12, threads_per_block=128,
        work_per_block=2500.0, bytes_per_block=1000.0,
        output_bytes=1 << 14,
    ),
]

FTTI_MS = Ftti(100.0)


def main() -> None:
    gpu = GPUConfig.gpgpusim_like()
    manager = RedundantKernelManager(gpu, "half")
    protocol_ms = protocol_overhead_ms(
        COTSDevice(),
        input_mb=sum(k.input_bytes for k in PIPELINE) / 1e6,
        output_mb=sum(k.output_bytes for k in PIPELINE) / 1e6,
        n_launches=len(PIPELINE),
        copies=manager.copies,
    )

    print("=== fault-free frames ===")
    for frame in range(3):
        run = manager.run(PIPELINE, tag=f"frame{frame}")
        frame_ms = gpu.cycles_to_ms(run.makespan) + protocol_ms
        print(
            f"frame {frame}: {frame_ms:7.3f} ms end-to-end "
            f"(GPU busy {gpu.cycles_to_ms(run.sim.trace.busy_cycles):6.3f} "
            f"ms)  agree={run.all_clean}  "
            f"diverse={run.diversity.fully_diverse}"
        )

    print("\n=== frame hit by a chip-wide voltage droop ===")
    # The run is deterministic, so the droop's corruption is derived from
    # a clean run's trace and applied to a replay of the same frame.
    clean = manager.run(PIPELINE, tag="faulty-frame")
    trace = clean.sim.trace
    droop = TransientCCF(
        time=trace.makespan * 0.4,
        fault_id=1,
        work_per_block=max(k.work_per_block for k in PIPELINE),
    )
    corruption = apply_fault(droop, trace)
    result = manager.run(PIPELINE, tag="faulty-frame", corruption=corruption)
    print(
        f"droop at t={droop.time:.0f} cycles corrupted "
        f"{len(corruption)} block executions; "
        f"DCLS comparison mismatch detected: {result.error_detected}"
    )
    assert corruption and result.error_detected, (
        "HALF staggering must make the corruptions differ across copies"
    )
    assert not result.silent_corruption

    # fail-operational reaction: re-execute the redundant frame (the droop
    # may have hit any kernel of the chain)
    hit = next(c for c in result.comparisons if c.error_detected)
    action = plan_recovery(RedundancyMode.DMR, hit)
    frame_ms = gpu.cycles_to_ms(clean.makespan) + protocol_ms
    timeline = recovery_timeline(
        action, detection_ms=frame_ms, reexecution_ms=frame_ms,
    )
    timeline.check(FTTI_MS, context="perception frame")
    print(
        f"recovery: {action.value} — detected at {timeline.detected_at:.3f} ms, "
        f"handled at {timeline.handled_at:.3f} ms, "
        f"within FTTI of {FTTI_MS.milliseconds:.0f} ms"
    )

    assert action is RecoveryAction.REEXECUTE


if __name__ == "__main__":
    main()
