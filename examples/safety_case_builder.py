#!/usr/bin/env python3
"""Build and check the full ISO 26262 safety case of the paper's platform.

Constructs the system of Section IV-A — DCLS microcontroller, ECC/CRC
protected memories and interfaces, GPU SMs with redundant kernel
execution — allocates an ASIL-D perception safety goal onto it, and
checks every claim:

* the ASIL-D goal decomposes onto two ASIL-B GPU kernel copies *only*
  because the measured schedule (SRRS here) is diverse;
* every component outside the sphere of replication carries an explicit
  lighter mechanism (ECC / CRC / lockstep / periodic test), listed by
  the sphere-of-replication table rather than by the safety case;
* the kernel scheduler's periodic test is exercised against an injected
  latent placement fault.

Run:
    python examples/safety_case_builder.py
"""

from __future__ import annotations

from repro import GPUConfig, RedundantKernelManager
from repro.analysis.report import render_table
from repro.faults import (
    FaultySchedulerWrapper,
    SchedulerFault,
    SchedulerFaultKind,
    audit_placement,
)
from repro.gpu.scheduler import HALFScheduler, SRRSScheduler
from repro.gpu.simulator import GPUSimulator
from repro.iso26262 import (
    Asil,
    Ftti,
    SafetyGoal,
    SafetyRequirement,
    SystemElement,
    check_system,
)
from repro.redundancy import protection_plan
from repro.redundancy.manager import build_redundant_workload
from repro.workloads import get_benchmark


def main() -> None:
    gpu = GPUConfig.gpgpusim_like()
    kernels = list(get_benchmark("hotspot").kernels)

    # --- measure diversity under the chosen policy -------------------
    run = RedundantKernelManager(gpu, "srrs").run(kernels)
    independent = run.diversity.fully_diverse
    print(f"measured diversity under SRRS: {run.diversity.summary()}\n")

    # --- sphere of replication & protection obligations --------------
    print(render_table(
        ["component", "in SoR", "protection", "rationale"],
        [[p.component, p.inside_sphere, p.protection.value, p.rationale]
         for p in protection_plan()],
        title="Sphere of replication: SM cores (Section II-B / III-B)",
    ))

    # --- safety goal and allocation ----------------------------------
    goal = SafetyGoal(
        name="no undetected erroneous perception output",
        asil=Asil.D,
        ftti=Ftti(100.0),
    )
    elements = {
        "dcls-mcu": SystemElement("dcls-mcu", standalone_asil=Asil.D),
        "gpu-copy-0": SystemElement(
            "gpu-copy-0", standalone_asil=Asil.B,
            redundant_with="gpu-copy-1", independent_of_peer=independent,
        ),
        "gpu-copy-1": SystemElement(
            "gpu-copy-1", standalone_asil=Asil.B,
            redundant_with="gpu-copy-0", independent_of_peer=independent,
        ),
    }
    requirements = [
        SafetyRequirement(
            "REQ-PERC-1  perception computed correctly or error detected",
            goal, allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
        ),
        SafetyRequirement(
            "REQ-PERC-2  offload protocol and comparison on lockstep cores",
            goal, allocated_to=("dcls-mcu",),
        ),
    ]
    print()
    for line in check_system(requirements, elements):
        print("  OK", line)

    # --- the periodic scheduler test (keeps faults from latency) -----
    launches = build_redundant_workload(kernels)
    fault = SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=0)
    observed = GPUSimulator(
        gpu, FaultySchedulerWrapper(HALFScheduler(), fault)
    ).run(launches).trace
    deviations = audit_placement(observed, gpu, HALFScheduler(), launches)
    print(
        f"\nperiodic scheduler test: injected pin-to-SM0 fault produced "
        f"{deviations} placement deviations — "
        f"{'DETECTED' if deviations else 'MISSED'} before becoming latent"
    )
    assert deviations

    print("\nsafety case complete: ASIL-D goal supported by B(D)+B(D) "
          "decomposition over diverse-redundant GPU execution.")


if __name__ == "__main__":
    main()
