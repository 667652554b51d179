"""Fault-injection framework (experiments E5 and E8).

Hardware faults (:mod:`~repro.faults.types`) are applied to execution
traces (:mod:`~repro.faults.injector`), classified
(:mod:`~repro.faults.outcomes`) and aggregated into campaigns
(:mod:`~repro.faults.campaign`); kernel-scheduler misbehaviour is injected
and audited separately (:mod:`~repro.faults.scheduler_faults`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.report": ("CampaignReport",),
    "repro.faults.campaign": ("FaultCampaign",),
    "repro.faults.injector": ("CorruptionMap", "apply_fault"),
    "repro.faults.outcomes": (
        "FaultOutcome", "InjectionResult", "classify_outcome",
    ),
    "repro.faults.scheduler_faults": (
        "FaultySchedulerWrapper", "PlacementDeviation", "SchedulerFault",
        "SchedulerFaultKind", "SchedulerFaultOutcome", "audit_placement",
        "classify_scheduler_fault",
    ),
    "repro.faults.types": (
        "FaultDescriptor", "PermanentSMFault", "SEUFault", "TransientCCF",
    ),
})
