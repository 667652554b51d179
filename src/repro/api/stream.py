"""Declarative stream specifications — the input of :mod:`repro.streams`.

A :class:`StreamSpec` describes an *open-loop* stream of frame jobs: the
per-frame job template (a :class:`~repro.api.spec.RunSpec` — workload,
GPU, policy, redundancy degree), the arrival process
(:class:`ArrivalSpec` — periodic, jittered or Poisson), the queueing
discipline (bounded FIFO with drop-on-full backpressure), the per-frame
deadline budget and an optional per-frame fault overlay
(:class:`StreamFaultSpec`).  Like every spec in :mod:`repro.api` it is a
frozen dataclass of plain values: hashable, picklable and
JSON-round-trippable, with a :attr:`StreamSpec.config_hash` digest of the
canonical JSON form as provenance.

Example::

    from repro.api import ArrivalSpec, RunSpec, StreamSpec, WorkloadSpec

    spec = StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        arrival=ArrivalSpec(model="jittered", period_ms=33.3,
                            jitter_ms=3.0),
        frames=100_000,
        deadline_ms=100.0,
    )
    assert StreamSpec.from_json(spec.to_json()) == spec

:meth:`StreamSpec.for_task` builds the spec of one ADAS task from
:data:`repro.workloads.adas.ADAS_TASKS`: the task's kernel chain becomes
the workload, its activation period the arrival period and its FTTI the
per-frame deadline budget.
"""

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple

from repro.api.spec import Codec, KernelSpec, RunSpec, SpecCodec, WorkloadSpec
from repro.errors import ConfigurationError

__all__ = ["ArrivalSpec", "StreamFaultSpec", "StreamSpec", "ARRIVAL_MODELS"]

#: Arrival-model names accepted by :class:`ArrivalSpec`.
ARRIVAL_MODELS: Tuple[str, ...] = ("periodic", "jittered", "poisson")


@dataclass(frozen=True)
class ArrivalSpec(Codec):
    """The open-loop arrival process of a frame stream.

    Attributes:
        model: ``"periodic"`` (frame *i* arrives at ``i * period_ms``),
            ``"jittered"`` (periodic plus an independent uniform offset in
            ``[-jitter_ms, +jitter_ms]`` per frame) or ``"poisson"``
            (exponential inter-arrival times with mean ``period_ms``).
        period_ms: activation period — the mean inter-arrival time.
        jitter_ms: per-frame uniform jitter half-width (``"jittered"``
            only); must stay below ``period_ms / 2`` so arrival times
            remain non-decreasing.
    """

    model: str = "periodic"
    period_ms: float = 33.3
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in ARRIVAL_MODELS:
            raise ConfigurationError(
                f"unknown arrival model {self.model!r}; "
                f"known: {', '.join(ARRIVAL_MODELS)}"
            )
        if self.period_ms <= 0:
            raise ConfigurationError("arrival period must be positive")
        if self.jitter_ms < 0:
            raise ConfigurationError("arrival jitter cannot be negative")
        if self.model != "jittered" and self.jitter_ms:
            raise ConfigurationError(
                f"jitter_ms only applies to the 'jittered' model, "
                f"not {self.model!r}"
            )
        if self.model == "jittered" and self.jitter_ms > self.period_ms / 2:
            raise ConfigurationError(
                "jitter_ms must not exceed half the period (arrival times "
                "must stay non-decreasing)"
            )

    @property
    def rate_hz(self) -> float:
        """Mean arrival rate in frames per second."""
        return 1000.0 / self.period_ms


@dataclass(frozen=True)
class StreamFaultSpec(Codec):
    """Per-frame fault overlay of a stream (memoryless sampling).

    Every frame independently suffers one injected hardware fault with
    probability ``probability``, drawn from the frame's own PRNG
    substream (so the overlay is independent of worker/chunk
    configuration).  The fault kind is chosen by the three weights,
    mirroring the population mix of
    :class:`~repro.api.spec.FaultPlanSpec`.  Detected errors
    trigger a full redundant re-execution of the frame — surfacing as
    added latency and possibly a deadline miss — while silent corruptions
    are counted as delivered-but-wrong frames.

    Attributes:
        probability: per-frame injection probability in ``[0, 1]``.
        transient_ccf: relative weight of chip-wide transient CCFs.
        permanent_sm: relative weight of (frame-local) permanent SM
            defects.
        seu: relative weight of local single-event upsets.
        phase_quantum: transient-CCF alignment quantum in work units.
    """

    probability: float = 0.0
    transient_ccf: int = 2
    permanent_sm: int = 1
    seu: int = 1
    phase_quantum: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                "fault probability must lie in [0, 1]"
            )
        if min(self.transient_ccf, self.permanent_sm, self.seu) < 0:
            raise ConfigurationError("fault-kind weights cannot be negative")
        if self.transient_ccf + self.permanent_sm + self.seu == 0:
            raise ConfigurationError(
                "at least one fault-kind weight must be positive"
            )
        if self.phase_quantum <= 0:
            raise ConfigurationError("phase quantum must be positive")


@dataclass(frozen=True)
class StreamSpec(SpecCodec):
    """One declarative open-loop frame stream.

    Attributes:
        run: the per-frame job template — workload, GPU, policy and
            redundancy degree.  Must simulate (``simulate=True``), must
            be redundant (``effective_copies >= 2``) and must not carry
            an inline fault plan (the stream owns its fault overlay).
        arrival: the arrival process (see :class:`ArrivalSpec`).
        frames: number of frames the stream generates.
        queue_depth: maximum frames *waiting* behind the one in service;
            an arrival that finds the queue full is dropped
            (backpressure).
        deadline_ms: per-frame latency budget (arrival to completion);
            ``None`` defaults to the arrival period.  For ADAS tasks this
            is the FTTI budget — see :meth:`for_task`.
        faults: optional per-frame fault overlay (see
            :class:`StreamFaultSpec`).
        workload_mix: optional rotation of workloads — frame ``i``
            executes ``workload_mix[i % len(workload_mix)]`` instead of
            ``run.workload`` (which still fixes GPU/policy/redundancy).
        quantiles: latency quantiles the online analytics estimate;
            strictly increasing values in ``(0, 1)``.
        window_ms: tumbling-window length of the throughput/utilisation
            analytics; ``None`` defaults to 50 arrival periods.
        seed: master PRNG seed of the stream's substreams (jitter,
            Poisson gaps, fault overlay).
        tag: free-form label carried into the report.
        asil: integrity level of the task's safety goal (``"QM"``,
            ``"A"``–``"D"``; any :func:`repro.iso26262.asil.as_asil`
            form, canonicalised to the level name).  Set by
            :meth:`for_task` from the ADAS library; drives the
            platform-level ISO 26262 rollup.  ``None`` lets the rollup
            fall back to a library lookup by label.
    """

    run: RunSpec
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    frames: int = 1000
    queue_depth: int = 4
    deadline_ms: Optional[float] = None
    faults: Optional[StreamFaultSpec] = None
    workload_mix: Tuple[WorkloadSpec, ...] = ()
    quantiles: Tuple[float, ...] = (0.5, 0.9, 0.99)
    window_ms: Optional[float] = None
    seed: int = 2019
    tag: str = ""
    asil: Optional[str] = None

    def __post_init__(self) -> None:
        if self.asil is not None:
            from repro.iso26262.asil import as_asil

            object.__setattr__(self, "asil", as_asil(self.asil).name)
        if not self.run.simulate:
            raise ConfigurationError(
                "a stream needs a simulated run (simulate=True) — frame "
                "service times come from the virtual-time simulator"
            )
        if self.run.effective_copies < 2:
            raise ConfigurationError(
                "a stream executes frames redundantly (copies >= 2); "
                f"got {self.run.effective_copies}"
            )
        if self.run.faults is not None:
            raise ConfigurationError(
                "the stream owns the fault overlay: set StreamSpec.faults, "
                "not RunSpec.faults"
            )
        if self.frames < 1:
            raise ConfigurationError("stream must generate at least one frame")
        if self.queue_depth < 0:
            raise ConfigurationError("queue depth cannot be negative")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.window_ms is not None and self.window_ms <= 0:
            raise ConfigurationError("analytics window must be positive")
        object.__setattr__(self, "workload_mix", tuple(self.workload_mix))
        object.__setattr__(self, "quantiles", tuple(self.quantiles))
        if not self.quantiles:
            raise ConfigurationError("at least one latency quantile required")
        if any(not 0.0 < q < 1.0 for q in self.quantiles):
            raise ConfigurationError("quantiles must lie strictly in (0, 1)")
        if list(self.quantiles) != sorted(set(self.quantiles)):
            raise ConfigurationError(
                "quantiles must be strictly increasing"
            )

    # ------------------------------------------------------------------
    @classmethod
    def for_task(cls, task_name: str, *, frames: int = 1000,
                 arrival_model: str = "periodic", jitter_ms: float = 0.0,
                 device: Any = None,
                 **overrides: Any) -> "StreamSpec":
        """Build the stream of one ADAS task from the built-in library.

        The task's kernel chain becomes the workload, its activation
        period the arrival period, its FTTI the per-frame deadline and
        its recommended policy the run policy.

        Args:
            task_name: a name from
                :data:`repro.workloads.adas.ADAS_TASKS` (e.g.
                ``"camera-perception"``).
            frames: number of frames to stream.
            arrival_model: arrival model name (see :class:`ArrivalSpec`).
            jitter_ms: jitter half-width for the ``"jittered"`` model.
            device: optional device the task runs on — a
                :class:`~repro.api.platform.DeviceSpec` or a preset name
                from :data:`~repro.api.platform.DEVICE_PRESETS`.  The
                device's simulated GPU replaces the run's default, so
                per-frame service times reflect the heterogeneous
                hardware (the default keeps the paper's GPGPU-Sim
                platform).
            **overrides: any further :class:`StreamSpec` fields.

        Raises:
            ConfigurationError: for unknown task names, device preset
                names, or device objects of the wrong type.
        """
        from repro.workloads.adas import ADAS_TASKS

        by_name = {task.name: task for task in ADAS_TASKS}
        task = by_name.get(task_name)
        if task is None:
            raise ConfigurationError(
                f"unknown ADAS task {task_name!r}; "
                f"known: {', '.join(sorted(by_name))}"
            )
        workload = WorkloadSpec(kernels=tuple(
            KernelSpec.from_descriptor(kd) for kd in task.kernels
        ))
        run = RunSpec(workload=workload, policy=task.policy)
        if device is not None:
            # imported lazily: repro.api.platform depends on this module
            from repro.api.platform import DeviceSpec

            if isinstance(device, str):
                device = DeviceSpec(name=device, preset=device)
            elif not isinstance(device, DeviceSpec):
                raise ConfigurationError(
                    "device must be a DeviceSpec or a preset name, "
                    f"got {device!r}"
                )
            run = replace(run, gpu=device.gpu_spec())
        spec = cls(
            run=run,
            arrival=ArrivalSpec(model=arrival_model,
                                period_ms=task.period_ms,
                                jitter_ms=jitter_ms),
            frames=frames,
            deadline_ms=task.ftti.milliseconds,
            tag=task.name,
            asil=task.asil.name,
        )
        return replace(spec, **overrides) if overrides else spec

    # ------------------------------------------------------------------
    @property
    def effective_deadline_ms(self) -> float:
        """The per-frame latency budget actually enforced."""
        if self.deadline_ms is not None:
            return self.deadline_ms
        return self.arrival.period_ms

    @property
    def effective_window_ms(self) -> float:
        """The analytics window length actually used."""
        if self.window_ms is not None:
            return self.window_ms
        return 50.0 * self.arrival.period_ms

    @property
    def label(self) -> str:
        """Human-readable identity (tag or the underlying run's label)."""
        return self.tag or self.run.label
