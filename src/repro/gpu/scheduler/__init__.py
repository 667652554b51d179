"""Kernel scheduling policies for the GPU simulator.

Exports the scheduler interface, the three policies evaluated in the paper
(default / SRRS / HALF) and the name-based registry.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gpu.scheduler.base": ("KernelScheduler", "SchedulerView"),
    "repro.gpu.scheduler.default": ("DefaultScheduler",),
    "repro.gpu.scheduler.half": ("HALFScheduler",),
    "repro.gpu.scheduler.registry": (
        "PAPER_POLICIES", "available_schedulers", "make_scheduler",
        "register_scheduler",
    ),
    "repro.gpu.scheduler.srrs": ("SRRSScheduler",),
    "repro.gpu.scheduler.staggered": ("StaggeredScheduler",),
})
