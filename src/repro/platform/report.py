"""The canonical platform outcome: :class:`PlatformReport`.

One report folds the per-device :class:`~repro.streams.report.StreamReport`
results of every placed task into the platform-level verdicts the paper's
deployment story needs:

* **per-device accounting** — each device's spec (GPU, preset,
  capacity) and, derived from the tasks placed on it, planned
  utilisation, frame counters and throughput;
* **global deadline/FTTI accounting** — totals of frames, drops,
  deadline misses and fault outcomes across the whole task set;
* **ISO 26262 rollup** — each task resolves to the ASIL of its safety
  goal (via the :data:`~repro.workloads.adas.ADAS_TASKS` library; tasks
  outside it are QM) and gets a verdict: on-time delivery (no drops, no
  deadline misses — the FTTI budget is the stream deadline) and fault
  detection coverage at least the SPFM target of its ASIL
  (:data:`~repro.iso26262.metrics.TARGETS`).  The platform rolls up the
  *worst* per-task verdict: one failing ASIL-D task fails the platform.

Like :class:`~repro.streams.report.StreamReport` the report is O(1) in
the frame count and takes its JSON form from the spec codec
(:class:`~repro.api.spec.ReportCodec`).  Only the device specs and the
tasks are stored: the task safe rates and verdicts, the placement, the
per-device and platform totals and the ASIL rollup are derived keys
(over the tasks in label order), a saved report loads only in that
canonical form, and
:meth:`~repro.api.spec.ReportCodec.digest` hashes it.  The platform
determinism contract (``docs/PLATFORM.md``) is stated over that digest:
same :class:`~repro.api.platform.PlatformSpec` ⇒ bit-identical digest,
for any worker count and any task-declaration order.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.spec import Codec, ReportCodec
from repro.errors import ConfigurationError, PlatformError
from repro.iso26262.asil import Asil
from repro.iso26262.metrics import TARGETS
from repro.streams.report import safe_fraction, stream_rate_rows

__all__ = [
    "AsilRollup",
    "PlatformDevice",
    "PlatformReport",
    "PlatformTask",
    "PlatformTotals",
    "task_asil",
]


def task_asil(label: str) -> Asil:
    """The ASIL of one task label (QM outside the ADAS library)."""
    from repro.workloads.adas import ADAS_TASKS

    for task in ADAS_TASKS:
        if task.name == label:
            return task.asil
    return Asil.QM


@dataclass(frozen=True)
class PlatformTask(Codec):
    """One task's outcome and its ISO 26262 verdict.

    A safety-related task passes (:attr:`ok`) when (a) every frame was
    delivered on time — no drops and no deadline misses, the stream
    deadline being the task's FTTI budget — and (b) its observed
    fault-detection coverage meets the SPFM target of its ASIL
    (vacuously true without dangerous faults).  QM tasks always pass.

    Attributes:
        device: the device the task is placed on.
        asil: the task's integrity level name (``"QM"``, ``"A"``–``"D"``).
        utilisation / service_ms / protocol_ms: planned demand.
        frames / completed / dropped / deadline_misses / faults_injected
            / faults_detected / faults_sdc / throughput_fps / elapsed_ms:
            the stream's headline counters.
        digest: the task's stream report digest.
    """

    device: str
    asil: str
    utilisation: float
    service_ms: float
    protocol_ms: float
    frames: int
    completed: int
    dropped: int
    deadline_misses: int
    faults_injected: int
    faults_detected: int
    faults_sdc: int
    throughput_fps: float
    elapsed_ms: float
    digest: str

    derived_keys = ("safe_rate", "coverage", "coverage_ok", "ftti_ok",
                    "sdc_free", "ok")

    def __post_init__(self) -> None:
        if self.asil not in Asil.__members__:
            raise ConfigurationError(
                f"PlatformTask.asil must be one of "
                f"{', '.join(Asil.__members__)}, got {self.asil!r}"
            )
        # counters add up as a stream's do: each frame completed or dropped,
        # misses among the completed, each detected or silent fault injected
        rest = self.frames - self.completed
        for name, low, high in (
                ("completed", 0, self.frames), ("dropped", rest, rest),
                ("deadline_misses", 0, self.completed),
                ("faults_detected", 0, self.faults_injected),
                ("faults_sdc", 0, self.faults_injected - self.faults_detected)):
            if not low <= getattr(self, name) <= high:
                raise ConfigurationError(
                    f"PlatformTask.{name} must be in [{low}, {high}], "
                    f"got {getattr(self, name)}")

    @property
    def safe_rate(self) -> float:
        """The stream's safe rate, from the task's own counters."""
        return safe_fraction(self.frames, self.dropped,
                             self.deadline_misses, self.faults_sdc)

    @property
    def coverage(self) -> float:
        """Detected over dangerous (detected + SDC) faults; 1.0 without any."""
        dangerous = self.faults_detected + self.faults_sdc
        return 1.0 if dangerous == 0 else self.faults_detected / dangerous

    @property
    def coverage_ok(self) -> bool:
        """The coverage meets the SPFM target of the task's ASIL."""
        target = TARGETS[Asil[self.asil]].spfm
        return target is None or self.coverage >= target

    @property
    def ftti_ok(self) -> bool:
        """Every frame was delivered, on time."""
        return self.deadline_misses == 0 and self.dropped == 0

    @property
    def sdc_free(self) -> bool:
        """No silent data corruption escaped."""
        return self.faults_sdc == 0

    @property
    def ok(self) -> bool:
        """The task's verdict (QM tasks always pass)."""
        return (not Asil[self.asil].is_safety_related
                or (self.ftti_ok and self.coverage_ok))


def _rate_rows(count: Callable[[str], int]) -> Dict[str, Tuple[int, int]]:
    """The stream rate rows over the task counters ``count(field)``."""
    return stream_rate_rows(
        frames=count("frames"), completed=count("completed"),
        dropped=count("dropped"), deadline_misses=count("deadline_misses"),
        sdc=count("faults_sdc"), injected=count("faults_injected"))


@dataclass(frozen=True)
class PlatformDevice(Codec):
    """One device's spec: its GPU, preset and utilisation capacity."""

    gpu: str
    preset: Optional[str]
    capacity: float


@dataclass(frozen=True)
class PlatformTotals(Codec):
    """Counters over a set of tasks (the platform's or one device's).

    Task counters and planned utilisation summed over the tasks, the
    frame-weighted safe rate and the longest stream makespan.
    """

    frames: float
    completed: float
    dropped: float
    deadline_misses: float
    faults_injected: float
    faults_detected: float
    faults_sdc: float
    throughput_fps: float
    utilisation: float
    safe_rate: float
    elapsed_ms: float

    @classmethod
    def of(cls, tasks: Sequence[PlatformTask]) -> "PlatformTotals":
        """The fold over ``tasks``, summing in their order."""
        sums = {key: float(sum(getattr(task, key) for task in tasks))
                for key in ("frames", "completed", "dropped",
                            "deadline_misses", "faults_injected",
                            "faults_detected", "faults_sdc",
                            "throughput_fps", "utilisation")}
        return cls(
            safe_rate=safe_fraction(sums["frames"], sums["dropped"],
                                    sums["deadline_misses"],
                                    sums["faults_sdc"]),
            elapsed_ms=max((task.elapsed_ms for task in tasks), default=0.0),
            **sums,
        )


@dataclass(frozen=True)
class AsilRollup(Codec):
    """The ISO 26262 rollup over the task set.

    Attributes:
        worst_asil: the highest task ASIL.
        violations: labels of failing tasks.
        worst_failed_asil: the highest ASIL among them (``None`` when
            every task passed).
    """

    worst_asil: str
    violations: Tuple[str, ...]
    worst_failed_asil: Optional[str]

    derived_keys = ("verdict",)

    @property
    def verdict(self) -> str:
        """``"pass"``, or ``"fail"`` when any task failed."""
        return "fail" if self.violations else "pass"


@dataclass(frozen=True)
class PlatformReport(ReportCodec):
    """Aggregated outcome of one platform execution (O(1) size).

    Attributes:
        label: the platform's human-readable identity.
        spec_hash: :attr:`~repro.api.platform.PlatformSpec.config_hash`
            of the executed spec (provenance).
        policy: placement policy used.
        devices: the device specs, keyed by device name.
        tasks: per-task outcome and verdict, keyed by task label.
    """

    label: str
    spec_hash: str
    policy: str
    devices: Dict[str, PlatformDevice]
    tasks: Dict[str, PlatformTask]

    derived_keys = ("placement", "totals", "device_totals", "asil")
    load_error = PlatformError

    def __post_init__(self) -> None:
        for label, task in sorted(self.tasks.items()):
            if task.device not in self.devices:
                raise PlatformError(f"PlatformReport.tasks.{label}.device "
                                    f"{task.device!r} is not a device")

    def _by_label(self) -> List[Tuple[str, PlatformTask]]:
        """The tasks in label order: the order every rollup sums in."""
        return sorted(self.tasks.items())

    @property
    def placement(self) -> Dict[str, str]:
        """Task label -> device name."""
        return {label: task.device for label, task in self._by_label()}

    @property
    def totals(self) -> PlatformTotals:
        """Platform-wide counters."""
        return PlatformTotals.of([task for _, task in self._by_label()])

    @property
    def device_totals(self) -> Dict[str, PlatformTotals]:
        """Device name -> the counters of the tasks placed on it."""
        tasks = self._by_label()
        return {name: PlatformTotals.of([task for _, task in tasks
                                         if task.device == name])
                for name in self.devices}

    @property
    def asil(self) -> AsilRollup:
        """The ISO 26262 rollup; one failing ASIL-D task fails the
        platform."""
        tasks = self._by_label()
        violations = tuple(label for label, task in tasks if not task.ok)
        worst_failed = max((Asil[task.asil] for _, task in tasks
                            if not task.ok), default=None)
        return AsilRollup(
            worst_asil=max((Asil[task.asil] for _, task in tasks),
                           default=Asil.QM).name,
            violations=violations,
            worst_failed_asil=(
                worst_failed.name if worst_failed is not None else None
            ),
        )

    def rate_rows(self) -> Dict[str, Tuple[int, int]]:
        """``metric -> (events, trials)`` of the stream rates over the
        summed task counters, plus each task's own rows keyed
        ``task/metric`` (the rows ``repro compare`` tests)."""
        tasks = self._by_label()
        rows = _rate_rows(lambda key: sum(getattr(task, key)
                                          for _, task in tasks))
        for label, task in tasks:
            rows.update((f"{label}/{metric}", counts) for metric, counts
                        in _rate_rows(partial(getattr, task)).items())
        return rows

    @property
    def all_ok(self) -> bool:
        """True when every task's ISO 26262 verdict passed."""
        return self.asil.verdict == "pass"

    def summary(self) -> str:
        """One-line platform summary for reports."""
        totals, asil = self.totals, self.asil
        return (
            f"{self.label} [{self.policy}]: devices={len(self.devices)} "
            f"tasks={len(self.tasks)} frames={totals.frames:g} "
            f"dropped={totals.dropped:g} "
            f"misses={totals.deadline_misses:g} "
            f"sdc={totals.faults_sdc:g} "
            f"asil={asil.worst_asil} verdict={asil.verdict}"
        )
