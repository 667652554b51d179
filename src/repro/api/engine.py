"""The :class:`Engine` facade — one executor for every kind of run.

The engine turns a declarative :class:`~repro.api.spec.RunSpec` into a
:class:`~repro.api.artifact.RunArtifact` by driving the existing
subsystems (simulator, redundancy manager, classifier, COTS model, fault
campaign) behind a single, uniform entry point::

    import repro

    artifact = repro.run(repro.RunSpec(
        workload=repro.WorkloadSpec(benchmark="hotspot"), policy="srrs",
    ))
    assert artifact.diversity.fully_diverse

Batch execution (:meth:`Engine.run_many`) fans specs out over a process
pool.  Every model in the reproduction is deterministic and fault seeds
are fixed per spec, so the artifact list is identical for any worker
count — ``workers=4`` only changes the wall-clock, never the results.
The ``baseline: true`` specs of one GPU and workload run as one pool
task, so a batch simulates each distinct baseline once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# the simulation stack first: the import order repro.campaigns.runner
# documents (it keeps this process and its forked workers smaller)
from repro.redundancy.manager import RedundantKernelManager, RedundantRunResult
from repro.api.artifact import (
    ClassificationRow,
    ComparisonSummary,
    CotsSummary,
    DiversitySummary,
    FaultSummary,
    RunArtifact,
    TimingSummary,
)
from repro.api.spec import RunSpec
from repro.errors import ConfigurationError, WorkerCountError
from repro.exec import map_tasks
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, dependent_chain
from repro.gpu.scheduler.registry import make_scheduler
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.redundancy.diversity import (
    DEFAULT_PHASE_TOLERANCE,
    analyze_diversity,
)
from repro.workloads.rodinia import get_benchmark

__all__ = ["Engine", "run", "run_many"]


def _run_group(task: Tuple[Tuple[RunSpec, ...], bool],
               telemetry: Telemetry) -> List[RunArtifact]:
    """Pool task: execute one ``(specs, validate)`` group in order; the
    first spec that records a baseline hands it to the rest."""
    specs, validate = task
    engine = Engine(validate=validate, telemetry=telemetry)
    artifacts: List[RunArtifact] = []
    baseline: Optional[float] = None
    for spec in specs:
        artifacts.append(engine._run(spec, baseline))
        if baseline is None and artifacts[-1].timing is not None:
            baseline = artifacts[-1].timing.baseline_makespan
    return artifacts


def _baseline_groups(specs: Sequence[RunSpec]) -> List[List[int]]:
    """Spec indices, one list per task, in order of their first index:
    the ``baseline: true`` specs of one ``(gpu, workload)`` together,
    every other spec alone."""
    groups: Dict[object, List[int]] = {}
    for i, spec in enumerate(specs):
        key = (spec.gpu, spec.workload) if spec.baseline else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _load_features(specs: Sequence[RunSpec]) -> None:
    """Import the optional-feature modules ``specs`` use.

    :meth:`Engine.run` imports the campaign runner, the kernel
    classifier and the COTS model at first use; a batch imports those its
    specs need here, before the pool forks, so no worker imports a module
    the parent had not loaded.
    """
    if any(spec.faults is not None for spec in specs):
        import repro.campaigns.runner  # noqa: F401
    if any(spec.classify for spec in specs):
        import repro.workloads.classify  # noqa: F401
    if any(spec.cots is not None for spec in specs):
        import repro.gpu.cots  # noqa: F401


class Engine:
    """Executes :class:`RunSpec` objects and returns :class:`RunArtifact`.

    Args:
        validate: forward the simulator's trace-validation switch (on by
            default; disabling buys a few percent of run time).
        telemetry: optional :class:`~repro.obs.session.Telemetry`
            session receiving per-run spans and batch heartbeats (pooled
            runs log their spans to worker sidecars merged back by
            :func:`repro.exec.map_tasks`); telemetry never changes any
            artifact.
    """

    def __init__(self, *, validate: bool = True,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._validate = validate
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # ------------------------------------------------------------------
    # single run
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunArtifact:
        """Execute one spec.

        Raises:
            ConfigurationError: for specs whose options do not fit their
                workload (e.g. a fault plan on a workload with no kernels).
        """
        return self._run(spec, None)

    def _run(self, spec: RunSpec, baseline: Optional[float]) -> RunArtifact:
        """Execute one spec; ``baseline`` is its baseline makespan when
        already simulated."""
        tm = self._telemetry
        gpu = spec.gpu.to_config()
        kernels = spec.workload.resolve(gpu)

        scheduler_name: Optional[str] = None
        timing: Optional[TimingSummary] = None
        diversity: Optional[DiversitySummary] = None
        comparisons: Optional[ComparisonSummary] = None
        faults: Optional[FaultSummary] = None

        if spec.simulate and kernels:
            with tm.span("simulate", label=spec.label,
                         copies=spec.effective_copies):
                if spec.effective_copies >= 2:
                    (timing, diversity, comparisons, faults,
                     scheduler_name) = self._run_redundant(spec, gpu, kernels,
                                                           baseline)
                else:
                    sim = self._run_plain(spec.policy, gpu, kernels, spec.tag)
                    scheduler_name = sim.scheduler_name
                    timing = self._timing(sim, gpu)
        elif spec.faults is not None:
            raise ConfigurationError(
                f"spec {spec.label!r}: a fault campaign needs a simulated "
                "redundant run, but the workload has no kernel chain"
            )

        if spec.classify:
            with tm.span("classify", kernels=len(kernels)):
                classification = self._classify(kernels, gpu)
        else:
            classification = ()
        cots = self._cots(spec) if spec.cots is not None else None

        from repro import __version__

        return RunArtifact(
            spec=spec,
            config_hash=spec.config_hash,
            version=__version__,
            scheduler=scheduler_name,
            timing=timing,
            diversity=diversity,
            comparisons=comparisons,
            classification=classification,
            cots=cots,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_many(self, specs: Iterable[RunSpec], *,
                 workers: int = 1) -> List[RunArtifact]:
        """Execute many specs, optionally on a process pool.

        Results are returned in spec order and are identical for any
        ``workers`` value (every run is deterministic and seeded per
        spec).

        Args:
            specs: the run specifications.
            workers: process count; ``1`` executes in-process.
        """
        return list(self.stream(specs, workers=workers))

    def stream(self, specs: Iterable[RunSpec], *,
               workers: int = 1) -> Iterator[RunArtifact]:
        """Like :meth:`run_many` but yields artifacts as they complete.

        Artifacts are yielded in spec order (the execution core,
        :func:`repro.exec.map_tasks`, preserves order while executing
        out-of-order).  Argument validation happens
        eagerly, before the returned iterator is consumed.

        Raises:
            WorkerCountError: for ``workers < 1`` — a
                :class:`ValueError` raised before any pool is created,
                never passed through to the executor.
        """
        spec_list = list(specs)
        if workers < 1:
            raise WorkerCountError(
                f"workers must be >= 1, got {workers!r}"
            )
        return self._stream(spec_list, workers)

    def _stream(self, spec_list: List[RunSpec],
                workers: int) -> Iterator[RunArtifact]:
        tm = self._telemetry
        _load_features(spec_list)
        tm.emit("run_start", kind="engine-batch", specs=len(spec_list),
                workers=workers)
        groups = _baseline_groups(spec_list)
        # a group's artifacts wait here until every earlier spec's is out
        waiting: Dict[int, RunArtifact] = {}
        done = 0
        for group, artifacts in zip(groups, map_tasks(
                _run_group,
                [(tuple(spec_list[i] for i in group), self._validate)
                 for group in groups],
                workers=workers,
                keys=[f"spec-{group[0]:05d}" for group in groups],
                telemetry=tm)):
            waiting.update(zip(group, artifacts))
            while done in waiting:
                yield waiting.pop(done)
                done += 1
                if tm.enabled:
                    tm.metrics.add("runs")
                    tm.beat("engine", done, len(spec_list),
                            rate_counter="runs", unit="runs/s")
        tm.emit("run_end", kind="engine-batch", completed=done)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_redundant(self, spec: RunSpec, gpu: GPUConfig,
                       kernels: Sequence[KernelDescriptor],
                       baseline: Optional[float]):
        manager = RedundantKernelManager(
            gpu, spec.policy, copies=spec.effective_copies,
            validate=self._validate,
        )
        run = manager.run(list(kernels), tag=spec.tag)
        if spec.baseline and baseline is None:
            # the non-redundant chain, unconstrained by any policy
            baseline = self._run_plain("default", gpu, kernels,
                                       spec.tag).makespan
        timing = self._timing(run.sim, gpu, baseline=baseline)
        diversity = DiversitySummary.from_report(
            self._diversity_report(spec, run, kernels)
        )
        comparisons = ComparisonSummary(
            logical_kernels=len(run.comparisons),
            error_detected=run.error_detected,
            silent_corruption=run.silent_corruption,
            all_clean=run.all_clean,
        )
        faults = self._campaign(spec, run) if spec.faults is not None else None
        return timing, diversity, comparisons, faults, run.sim.scheduler_name

    def _run_plain(self, policy: str, gpu: GPUConfig,
                   kernels: Sequence[KernelDescriptor],
                   tag: str) -> SimulationResult:
        launches = dependent_chain(list(kernels), tag=tag)
        simulator = GPUSimulator(
            gpu, make_scheduler(policy), validate=self._validate
        )
        return simulator.run(launches)

    @staticmethod
    def _timing(sim: SimulationResult, gpu: GPUConfig, *,
                baseline: Optional[float] = None) -> TimingSummary:
        return TimingSummary(
            busy_cycles=sim.trace.busy_cycles,
            makespan=sim.makespan,
            makespan_ms=gpu.cycles_to_ms(sim.makespan),
            events=sim.events,
            total_kernel_cycles=sim.total_kernel_cycles(),
            baseline_makespan=baseline,
        )

    @staticmethod
    def _diversity_report(spec: RunSpec, run: RedundantRunResult,
                          kernels: Sequence[KernelDescriptor]):
        if spec.phase_tolerance == DEFAULT_PHASE_TOLERANCE:
            return run.diversity
        work_hint = max(k.work_per_block for k in kernels)
        return analyze_diversity(
            run.sim.trace, copy_a=0, copy_b=1, work_per_block=work_hint,
            phase_tolerance=spec.phase_tolerance,
        )

    def _campaign(self, spec: RunSpec,
                  run: RedundantRunResult) -> FaultSummary:
        """The spec's fault campaign, on the ``campaign run`` shard path.

        The campaign is the :class:`~repro.api.campaign.CampaignSpec` of
        this run and plan; every shard of its plan is classified against
        the run already simulated and folded by
        :func:`~repro.campaigns.runner.fold_report`, exactly as ``campaign
        run`` does in-process, so both report the same counts.
        """
        from repro.api.campaign import CampaignSpec
        from repro.campaigns.runner import (
            campaign_plan,
            classify_shard,
            fold_report,
        )
        from repro.faults.campaign import FaultCampaign

        assert spec.faults is not None
        campaign_spec = CampaignSpec(run=replace(spec, faults=None),
                                     faults=spec.faults)
        campaign = FaultCampaign(run)
        plan = campaign_spec.effective_faults
        report = fold_report(
            classify_shard(campaign, plan, shard)
            for shard in campaign_plan(campaign_spec)
        )
        by_kind = tuple(
            (kind, tuple(sorted(outcomes.items())))
            for kind, outcomes in sorted(report.by_kind.items())
        )
        return FaultSummary(
            policy=report.policy,
            total=report.total,
            masked=report.masked,
            detected=report.detected,
            sdc=report.sdc,
            detection_coverage=report.detection_coverage,
            by_kind=by_kind,
        )

    @staticmethod
    def _classify(kernels: Sequence[KernelDescriptor],
                  gpu: GPUConfig) -> Tuple[ClassificationRow, ...]:
        from repro.workloads.classify import classify_kernel, recommend_policy

        rows = []
        for kernel in kernels:
            report = classify_kernel(kernel, gpu)
            rows.append(
                ClassificationRow(
                    kernel=kernel.name,
                    category=report.category.value,
                    isolated_cycles=report.isolated_cycles,
                    overlap_fraction=report.overlap_fraction,
                    resident_fraction=report.resident_fraction,
                    recommended_policy=recommend_policy(report.category),
                )
            )
        return tuple(rows)

    @staticmethod
    def _cots(spec: RunSpec) -> CotsSummary:
        from repro.gpu.cots import cots_end_to_end

        assert spec.cots is not None and spec.workload.benchmark is not None
        benchmark = get_benchmark(spec.workload.benchmark)
        device = spec.cots.to_device()
        copies = max(2, spec.effective_copies)
        baseline = cots_end_to_end(benchmark, device)
        redundant = cots_end_to_end(
            benchmark, device, redundant=True, copies=copies
        )
        return CotsSummary(
            benchmark=benchmark.name,
            baseline_ms=baseline.total_ms,
            redundant_ms=redundant.total_ms,
            copies=copies,
        )


_DEFAULT_ENGINE = Engine()


def run(spec: RunSpec) -> RunArtifact:
    """Execute one spec on a default engine (``repro.run(spec)``)."""
    return _DEFAULT_ENGINE.run(spec)


def run_many(specs: Iterable[RunSpec], *, workers: int = 1) -> List[RunArtifact]:
    """Execute many specs on a default engine (see :meth:`Engine.run_many`)."""
    return _DEFAULT_ENGINE.run_many(specs, workers=workers)
