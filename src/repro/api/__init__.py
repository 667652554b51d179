"""One declarative front door for every run.

The pipeline is :class:`RunSpec` → :class:`Engine` → :class:`RunArtifact`,
in four parts:

* :mod:`repro.api.spec` — frozen, JSON-round-trippable run descriptions
  (GPU + workload + policy + redundancy + optional fault plan / COTS /
  classification options);
* :mod:`repro.api.engine` — the :class:`Engine` facade with ``run(spec)``
  and ``run_many(specs, workers=N)`` (deterministic process-pool batch
  execution);
* :mod:`repro.api.scenarios` — the registry of named, parameterized spec
  builders covering every paper figure and extension experiment;
* :mod:`repro.api.campaign` — :class:`CampaignSpec`, the declarative
  description of a sharded resumable fault-injection campaign executed by
  :mod:`repro.campaigns`;
* :mod:`repro.api.stream` — :class:`StreamSpec`, the declarative
  description of a continuous open-loop frame stream executed by
  :mod:`repro.streams`;
* :mod:`repro.api.platform` — :class:`PlatformSpec` /
  :class:`DeviceSpec` / :class:`PlacementSpec`, the declarative
  description of a multi-device vehicle platform executed by
  :mod:`repro.platform`.

Quickstart::

    import repro

    spec = repro.RunSpec(workload=repro.WorkloadSpec(benchmark="hotspot"))
    artifact = repro.run(spec)
    assert artifact.diversity.fully_diverse

    specs = repro.build_scenario("fig4")
    artifacts = repro.run_many(specs, workers=4)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.campaign": ("CampaignSpec",),
    "repro.api.artifact": (
        "ClassificationRow", "ComparisonSummary", "CotsSummary",
        "DiversitySummary", "FaultSummary", "RunArtifact", "TimingSummary",
    ),
    "repro.api.engine": ("Engine", "run", "run_many"),
    "repro.api.scenarios": (
        "Scenario", "build_scenario", "get_scenario",
        "normalized_busy_cycles", "register_scenario", "scenario_names",
    ),
    "repro.api.spec": (
        "CotsSpec", "FaultPlanSpec", "GPUSpec", "KernelSpec", "RunSpec",
        "SMSpec", "WorkloadSpec",
    ),
    "repro.api.stats": ("RepeatSpec", "SamplingSpec"),
    "repro.api.stream": ("ArrivalSpec", "StreamFaultSpec", "StreamSpec"),
    "repro.api.platform": ("DeviceSpec", "PlacementSpec", "PlatformSpec"),
})
