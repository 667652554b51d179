"""Frame-job resolution: from stream workloads to service profiles.

A stream executes the *same* small set of frame jobs over and over —
one per distinct workload in the spec's rotation.  Every model in the
repo is deterministic, so each distinct job needs exactly one redundant
simulation on the virtual-time :class:`~repro.gpu.simulator.GPUSimulator`;
its makespan becomes the frame's service time and its clean trace the
substrate the per-frame fault overlay attacks.  :func:`resolve_jobs`
performs those simulations (optionally on a process pool through
:func:`repro.exec.map_tasks` — provably irrelevant to the results) and
returns one :class:`JobProfile` per rotation slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

# the simulation stack first: the import order repro.campaigns.runner
# documents
from repro.redundancy.manager import RedundantRunResult, clean_run
from repro.api.spec import RunSpec, WorkloadSpec
from repro.api.stream import StreamSpec
from repro.errors import StreamError, WorkerCountError
from repro.exec import map_tasks
from repro.faults.campaign import FaultCampaign
from repro.obs.session import Telemetry

__all__ = ["JobProfile", "resolve_jobs"]


@dataclass
class JobProfile:
    """Service profile of one distinct frame job.

    Attributes:
        label: workload label (see
            :attr:`repro.api.spec.WorkloadSpec.label`).
        service_ms: redundant makespan of one frame in milliseconds —
            the stream's per-frame service time.
        busy_ms: GPU-busy milliseconds one frame consumes.
        run: the clean redundant run the profile was measured on.
    """

    label: str
    service_ms: float
    busy_ms: float
    run: RedundantRunResult

    _campaign: Optional[FaultCampaign] = field(
        default=None, repr=False, compare=False
    )

    @property
    def campaign(self) -> FaultCampaign:
        """Fault-injection campaign over the job's clean trace (lazy)."""
        if self._campaign is None:
            self._campaign = FaultCampaign(self.run)
        return self._campaign


def _job_run_spec(spec: StreamSpec, workload: WorkloadSpec) -> RunSpec:
    """The per-frame :class:`RunSpec` of one rotation slot."""
    return replace(spec.run, workload=workload)


def _simulate_job(task: Tuple[str, bool],
                  telemetry: Telemetry) -> RedundantRunResult:
    """Pool task: simulate one frame job redundantly.

    The task is ``(run_spec_json, validate)``.  The simulation is
    bracketed by a ``simulate_job`` span on ``telemetry`` (the caller's
    session in-process, a worker sidecar in a pool).
    """
    spec_json, validate = task
    run_spec = RunSpec.from_json(spec_json)
    with telemetry.span("simulate_job", label=run_spec.workload.label):
        return clean_run(run_spec, validate=validate, error=StreamError)


def resolve_jobs(spec: StreamSpec, *, workers: int = 1,
                 validate: bool = True,
                 telemetry: Optional[Telemetry] = None) -> List[JobProfile]:
    """Simulate the stream's distinct frame jobs into service profiles.

    Frame ``i`` of the stream uses profile ``i % len(profiles)``: one
    profile per entry of :attr:`~repro.api.stream.StreamSpec.workload_mix`
    (or a single profile for the run's own workload when the mix is
    empty).  Duplicate workloads in the mix share one simulation.

    Args:
        spec: the stream description.
        workers: process count for the distinct-job simulations; only
            the wall clock changes (every simulation is deterministic).
        validate: forward the simulator's trace-validation switch.
        telemetry: optional session receiving one ``simulate_job``
            span per distinct job (pooled jobs log theirs to sidecar
            files merged back deterministically by
            :func:`repro.exec.map_tasks`).  Digest-neutral as always.

    Returns:
        One :class:`JobProfile` per rotation slot, in rotation order.

    Raises:
        StreamError: when a workload resolves to no kernels.
        WorkerCountError: for ``workers < 1`` — a :class:`ValueError`
            raised before any pool is created, never passed through to
            the executor.
    """
    if workers < 1:
        raise WorkerCountError(f"workers must be >= 1, got {workers!r}")
    rotation = list(spec.workload_mix) or [spec.run.workload]
    run_specs = [_job_run_spec(spec, workload) for workload in rotation]
    # first occurrence of each distinct job, in rotation order
    unique: Dict[str, RunSpec] = {}
    for run_spec in run_specs:
        unique.setdefault(run_spec.config_hash, run_spec)
    results = list(map_tasks(
        _simulate_job,
        [(run_spec.to_json(), validate) for run_spec in unique.values()],
        workers=workers, keys=[f"job-{i:03d}" for i in range(len(unique))],
        telemetry=telemetry,
    ))

    profiles_by_key: Dict[str, JobProfile] = {}
    for (key, run_spec), run in zip(unique.items(), results):
        gpu = run_spec.gpu.to_config()
        profiles_by_key[key] = JobProfile(
            label=run_spec.workload.label,
            service_ms=gpu.cycles_to_ms(run.makespan),
            busy_ms=gpu.cycles_to_ms(run.sim.trace.busy_cycles),
            run=run,
        )
    return [profiles_by_key[rs.config_hash] for rs in run_specs]
