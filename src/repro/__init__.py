"""repro — reproduction of "High-Integrity GPU Designs for Critical
Real-Time Automotive Systems" (Alcaide et al., DATE 2019).

The paper proposes lightweight GPU kernel-scheduler policies (SRRS and
HALF) that guarantee *diverse redundancy* — every redundant thread-block
pair executes on different SMs and/or at different times — so that COTS
GPUs can meet ISO 26262 ASIL-D requirements without heterogeneous
replication.

Top-level packages:

* :mod:`repro.api` — the declarative front door: :class:`RunSpec`,
  :class:`RunArtifact`, the :class:`Engine` facade with parallel batch
  execution, the scenario registry, and :class:`CampaignSpec`;
* :mod:`repro.campaigns` — sharded, resumable fault-injection campaign
  orchestration (process-pool shards, JSONL checkpoint store, streaming
  aggregate fold);
* :mod:`repro.streams` — continuous ADAS frame traffic: open-loop
  arrival models, bounded-queue backpressure, per-frame deadline/FTTI
  accounting and online O(1)-memory latency analytics;
* :mod:`repro.platform` — multi-device vehicle platforms: deterministic
  task placement across a heterogeneous GPU fleet, per-device stream
  execution and the platform-level ISO 26262 rollup;
* :mod:`repro.gpu` — GPU model, discrete-event timing simulator, kernel
  schedulers (default / SRRS / HALF), COTS end-to-end model;
* :mod:`repro.redundancy` — redundant execution manager, output
  comparison, diversity metrics, DMR/TMR;
* :mod:`repro.iso26262` — ASILs, decomposition, FTTI, hardware metrics;
* :mod:`repro.faults` — fault injection (transient CCFs, permanent SM
  defects, SEUs, scheduler faults) and campaigns;
* :mod:`repro.workloads` — Rodinia-shaped benchmark suite, synthetic
  kernels, the Figure 3 classifier;
* :mod:`repro.analysis` — report rendering, analytic chain bounds and
  the stream/platform sweeps;
* :mod:`repro.lint` — AST-based determinism-contract checker (rule
  engine, RL001…RL008 catalogue, inline suppressions, CI gate) keeping
  the bit-identity promise machine-enforced (``docs/LINT.md``);
* :mod:`repro.stats` — campaign/stream statistics: Wilson, normal and
  bootstrap confidence intervals, stratified / importance-sampled rate
  estimators with Horvitz–Thompson reweighting, repeat-until-confidence
  stopping, and the two-artifact significance comparison behind
  ``python -m repro compare`` (``docs/STATISTICS.md``);
* :mod:`repro.obs` — the observability plane: typed
  ``repro-telemetry/v1`` event logs, tracing spans, metrics and live
  progress for campaign/stream/platform runs, strictly digest-neutral
  (``docs/OBSERVABILITY.md``).

Quickstart — one declarative run::

    import repro

    spec = repro.RunSpec(workload=repro.WorkloadSpec(benchmark="hotspot"),
                         policy="srrs")
    artifact = repro.run(spec)
    assert artifact.comparisons.all_clean
    assert artifact.diversity.fully_diverse

Batches fan out over a process pool and stay bit-deterministic::

    artifacts = repro.run_many(repro.build_scenario("fig4"), workers=4)

The imperative substrate remains available (see ``docs/API.md`` for the
migration table)::

    from repro import GPUConfig, KernelDescriptor, RedundantKernelManager

    gpu = GPUConfig.gpgpusim_like()
    kernel = KernelDescriptor(name="adas/detect", grid_blocks=36,
                              threads_per_block=256, work_per_block=4000.0)
    run = RedundantKernelManager(gpu, policy="srrs").run([kernel])
    assert run.all_clean and run.diversity.fully_diverse
"""

from repro._lazy import lazy_exports

__version__ = "1.25.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    # errors
    "repro.errors": (
        "ReproError", "ConfigurationError", "SchedulingError",
        "SimulationError", "CapacityError", "RedundancyError",
        "SafetyViolation", "FaultInjectionError", "StreamError",
        "PlatformError", "PoolError", "WorkerCountError", "LintError",
        "StatsError", "RepeatBudgetError", "ObsError",
    ),
    # gpu
    "repro.gpu.config": ("GPUConfig", "SMConfig"),
    "repro.gpu.kernel": ("KernelDescriptor", "KernelLaunch"),
    "repro.gpu.simulator": ("GPUSimulator", "SimulationResult", "simulate"),
    "repro.gpu.trace": ("ExecutionTrace",),
    # schedulers
    "repro.gpu.scheduler.base": ("KernelScheduler",),
    "repro.gpu.scheduler.default": ("DefaultScheduler",),
    "repro.gpu.scheduler.srrs": ("SRRSScheduler",),
    "repro.gpu.scheduler.half": ("HALFScheduler",),
    "repro.gpu.scheduler.registry": ("make_scheduler",),
    # safety
    "repro.iso26262.asil": ("Asil",),
    "repro.iso26262.fault_model": ("Ftti",),
    # redundancy
    "repro.redundancy.manager": (
        "RedundantKernelManager", "RedundantRunResult",
    ),
    "repro.redundancy.modes": ("RedundancyMode",),
    "repro.redundancy.diversity": ("analyze_diversity",),
    # workloads
    "repro.workloads.classify": ("classify_kernel",),
    "repro.workloads.rodinia": ("get_benchmark",),
    # declarative api
    "repro.api.spec": (
        "RunSpec", "GPUSpec", "KernelSpec", "WorkloadSpec", "FaultPlanSpec",
    ),
    "repro.api.artifact": ("RunArtifact",),
    "repro.api.engine": ("Engine", "run", "run_many"),
    "repro.api.scenarios": (
        "register_scenario", "scenario_names", "build_scenario",
    ),
    # sharded campaigns
    "repro.api.campaign": ("CampaignSpec",),
    "repro.campaigns.store": ("CampaignStore",),
    "repro.campaigns.runner": (
        "run_campaign", "resume_campaign", "repeat_campaign",
    ),
    "repro.campaigns.fold": ("campaign_status",),
    # statistics
    "repro.api.stats": ("SamplingSpec", "RepeatSpec"),
    "repro.stats.intervals": ("RateEstimate", "wilson_interval"),
    "repro.stats.repeater": ("RepeatResult",),
    "repro.stats.compare": ("compare_artifacts",),
    # streams
    "repro.api.stream": ("StreamSpec", "ArrivalSpec", "StreamFaultSpec"),
    "repro.streams.report": ("StreamReport",),
    "repro.streams.runner": ("run_stream",),
    # platform
    "repro.api.platform": ("PlatformSpec", "DeviceSpec", "PlacementSpec"),
    "repro.platform.report": ("PlatformReport",),
    "repro.platform.placement": ("plan_placement",),
    "repro.platform.runner": ("run_platform",),
    # observability
    "repro.obs.session": ("Telemetry",),
})
__all__.append("__version__")
