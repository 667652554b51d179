"""Executable ISO 26262 model (Section II of the paper).

Subpackages: ASIL lattice (:mod:`~repro.iso26262.asil`), decomposition
rules (:mod:`~repro.iso26262.decomposition`), fault taxonomy and FTTI
(:mod:`~repro.iso26262.fault_model`), hardware architectural metrics
(:mod:`~repro.iso26262.metrics`) and the safety-case checker
(:mod:`~repro.iso26262.safety_case`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.iso26262.asil": ("Asil", "as_asil"),
    "repro.iso26262.decomposition": (
        "FIGURE1_EXAMPLES", "DecompositionNode", "DecompositionRule",
        "check_decomposition", "valid_decompositions",
    ),
    "repro.iso26262.fault_model": (
        "AGING_DEFECT", "CLOCK_GLITCH", "SEU", "STUCK_AT", "VOLTAGE_DROOP",
        "FaultClass", "FaultHandlingTimeline", "FaultPersistence",
        "FaultScope", "Ftti",
    ),
    "repro.iso26262.metrics": (
        "TARGETS", "FailureRateBudget", "HardwareMetrics", "MetricTargets",
        "coverage_from_campaign",
    ),
    "repro.iso26262.safety_case": (
        "SafetyGoal", "SafetyMechanism", "SafetyRequirement", "SystemElement",
        "check_requirement", "check_system",
    ),
})
