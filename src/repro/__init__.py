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
* :mod:`repro.host` — DCLS lockstep CPU, CUDA-like API, the five-step
  offload protocol;
* :mod:`repro.analysis` — experiment runners regenerating every paper
  figure, and report rendering;
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

from repro.errors import (
    CapacityError,
    ConfigurationError,
    FaultInjectionError,
    LintError,
    ObsError,
    PlatformError,
    PoolError,
    RedundancyError,
    RepeatBudgetError,
    ReproError,
    SafetyViolation,
    SchedulingError,
    SimulationError,
    StatsError,
    StreamError,
    WorkerCountError,
)
from repro.gpu import (
    ExecutionTrace,
    GPUConfig,
    GPUSimulator,
    KernelDescriptor,
    KernelLaunch,
    SimulationResult,
    SMConfig,
    simulate,
)
from repro.gpu.scheduler import (
    DefaultScheduler,
    HALFScheduler,
    KernelScheduler,
    SRRSScheduler,
    make_scheduler,
)
from repro.iso26262 import Asil, Ftti
from repro.redundancy import (
    RedundancyMode,
    RedundantKernelManager,
    RedundantRunResult,
    analyze_diversity,
)
from repro.workloads import classify_kernel, get_benchmark

__version__ = "1.10.0"

# the api and campaigns packages import repro.__version__ lazily at run
# time, so these imports must stay below the version assignment
from repro.api import (
    ArrivalSpec,
    CampaignSpec,
    DeviceSpec,
    Engine,
    FaultPlanSpec,
    GPUSpec,
    KernelSpec,
    PlacementSpec,
    PlatformSpec,
    RepeatSpec,
    RunArtifact,
    RunSpec,
    SamplingSpec,
    StreamFaultSpec,
    StreamSpec,
    WorkloadSpec,
    build_scenario,
    register_scenario,
    run,
    run_many,
    scenario_names,
)
from repro.campaigns import (
    CampaignStore,
    campaign_status,
    repeat_campaign,
    resume_campaign,
    run_campaign,
)
from repro.stats import (
    RateEstimate,
    RepeatResult,
    compare_artifacts,
    wilson_interval,
)
from repro.streams import StreamReport, repeat_stream, run_stream
from repro.platform import PlatformReport, plan_placement, run_platform
from repro.obs import Telemetry

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SchedulingError",
    "SimulationError",
    "CapacityError",
    "RedundancyError",
    "SafetyViolation",
    "FaultInjectionError",
    "StreamError",
    "PlatformError",
    "PoolError",
    "WorkerCountError",
    "LintError",
    "StatsError",
    "RepeatBudgetError",
    "ObsError",
    # gpu
    "GPUConfig",
    "SMConfig",
    "KernelDescriptor",
    "KernelLaunch",
    "GPUSimulator",
    "SimulationResult",
    "ExecutionTrace",
    "simulate",
    # schedulers
    "KernelScheduler",
    "DefaultScheduler",
    "SRRSScheduler",
    "HALFScheduler",
    "make_scheduler",
    # safety
    "Asil",
    "Ftti",
    # redundancy
    "RedundantKernelManager",
    "RedundantRunResult",
    "RedundancyMode",
    "analyze_diversity",
    # workloads
    "classify_kernel",
    "get_benchmark",
    # declarative api
    "RunSpec",
    "GPUSpec",
    "KernelSpec",
    "WorkloadSpec",
    "FaultPlanSpec",
    "RunArtifact",
    "Engine",
    "run",
    "run_many",
    "register_scenario",
    "scenario_names",
    "build_scenario",
    # sharded campaigns
    "CampaignSpec",
    "CampaignStore",
    "run_campaign",
    "resume_campaign",
    "repeat_campaign",
    "campaign_status",
    # statistics
    "SamplingSpec",
    "RepeatSpec",
    "RateEstimate",
    "RepeatResult",
    "wilson_interval",
    "compare_artifacts",
    # streams
    "StreamSpec",
    "ArrivalSpec",
    "StreamFaultSpec",
    "StreamReport",
    "run_stream",
    "repeat_stream",
    # platform
    "PlatformSpec",
    "DeviceSpec",
    "PlacementSpec",
    "PlatformReport",
    "plan_placement",
    "run_platform",
    # observability
    "Telemetry",
]
