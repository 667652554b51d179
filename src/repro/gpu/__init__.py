"""GPU architecture, timing simulation and scheduling substrate.

This package is the reproduction's stand-in for GPGPU-Sim plus the COTS
GPU testbed: configuration objects (:mod:`repro.gpu.config`), the kernel
model (:mod:`repro.gpu.kernel`), occupancy rules
(:mod:`repro.gpu.occupancy`), pluggable kernel schedulers
(:mod:`repro.gpu.scheduler`), the discrete-event simulator
(:mod:`repro.gpu.simulator`), execution traces (:mod:`repro.gpu.trace`)
and the analytic COTS end-to-end model (:mod:`repro.gpu.cots`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gpu.config": ("GPUConfig", "SMConfig"),
    "repro.gpu.kernel": (
        "KernelDescriptor", "KernelLaunch", "dependent_chain",
    ),
    "repro.gpu.memory": (
        "AccessProfile", "L2Model", "derive_bytes_per_block", "derive_kernel",
    ),
    "repro.gpu.occupancy": (
        "OccupancyReport", "blocks_per_sm", "max_resident_blocks",
        "occupancy_report",
    ),
    "repro.gpu.reference": ("ReferenceSimulator",),
    "repro.gpu.simulator": ("GPUSimulator", "SimulationResult", "simulate"),
    "repro.gpu.trace": ("ExecutionTrace", "KernelSpan"),
})
