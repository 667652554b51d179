"""Diverse-redundant kernel execution (Section IV of the paper).

Contents: the redundant execution manager and workload builder
(:mod:`~repro.redundancy.manager`), output comparison
(:mod:`~repro.redundancy.comparison`), diversity metrics
(:mod:`~repro.redundancy.diversity`), DMR/TMR modes and recovery
(:mod:`~repro.redundancy.modes`) and spheres of replication
(:mod:`~repro.redundancy.sphere`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.redundancy.comparison": (
        "ComparisonResult", "OutputSignature", "build_signature",
        "compare_signatures", "majority_vote",
    ),
    "repro.redundancy.diversity": (
        "DiversityReport", "PairDiversity", "analyze_diversity",
    ),
    "repro.redundancy.manager": (
        "RedundantKernelManager", "RedundantRunResult",
        "build_redundant_workload",
    ),
    "repro.redundancy.modes": (
        "RecoveryAction", "RedundancyMode", "plan_recovery",
        "recovery_timeline",
    ),
    "repro.redundancy.diverse_kernels": (
        "DiverseGridManager", "DiverseGridResult", "reduce_signature",
        "reshape_kernel",
    ),
    "repro.redundancy.sphere": (
        "PAPER_SOR", "ComponentProtection", "Protection",
        "SphereOfReplication", "protection_plan",
    ),
    "repro.redundancy.watchdog": (
        "DeadlineWatchdog", "WatchdogReport", "WatchdogViolation",
    ),
})
