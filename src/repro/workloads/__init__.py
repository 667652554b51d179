"""Workload models: the Rodinia-shaped suite, synthetic generators and the
Figure 3 kernel classifier."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.adas": (
        "ADAS_TASKS", "AdasTask", "TaskSchedule", "schedulability_report",
    ),
    "repro.workloads.classify": (
        "ClassificationReport", "KernelCategory", "classify_kernel",
        "recommend_policy",
    ),
    "repro.workloads.rodinia": (
        "FIG4_BENCHMARKS", "FIG5_BENCHMARKS", "COTSProfile",
        "RodiniaBenchmark", "get_benchmark",
    ),
    "repro.workloads.synthetic": (
        "make_friendly_kernel", "make_heavy_kernel", "make_narrow_kernel",
        "make_short_kernel",
    ),
})
