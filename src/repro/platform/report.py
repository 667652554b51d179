"""The canonical platform outcome: :class:`PlatformReport`.

One report folds the per-device :class:`~repro.streams.report.StreamReport`
results of every placed task into the platform-level verdicts the paper's
deployment story needs:

* **per-device accounting** — planned utilisation vs capacity, frame
  counters and throughput per device;
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
the frame count, offers a canonical :meth:`PlatformReport.to_dict` and a
:meth:`PlatformReport.digest` over it, and the platform determinism
contract (``docs/PLATFORM.md``) is stated over that digest: same
:class:`~repro.api.platform.PlatformSpec` ⇒ bit-identical digest, for
any worker count and any task-declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.errors import PlatformError
from repro.iso26262.asil import Asil, as_asil
from repro.iso26262.metrics import TARGETS
from repro.journal import payload_digest
from repro.streams.report import StreamReport, payload_field

__all__ = ["PlatformReport", "task_asil", "task_verdict"]


def task_asil(label: str) -> Asil:
    """The ASIL of one task label (QM outside the ADAS library)."""
    from repro.workloads.adas import ADAS_TASKS

    for task in ADAS_TASKS:
        if task.name == label:
            return task.asil
    return Asil.QM


def task_verdict(label: str, report: StreamReport,
                 asil: Any = None) -> Dict[str, Any]:
    """The ISO 26262 verdict of one task's stream outcome.

    A safety-related task passes when (a) every frame was delivered on
    time — no drops and no deadline misses, the stream deadline being
    the task's FTTI budget — and (b) its observed fault-detection
    coverage meets the SPFM target of its ASIL (vacuously true without
    dangerous faults).  QM tasks always pass.

    Args:
        label: the task's label (used for the library fallback).
        report: the task's stream outcome.
        asil: explicit integrity level — normally
            :attr:`repro.api.stream.StreamSpec.asil`, so tagged replicas
            of a safety task keep its level; ``None`` falls back to
            :func:`task_asil`.
    """
    asil = as_asil(asil) if asil is not None else task_asil(label)
    dangerous = report.faults_detected + report.faults_sdc
    coverage = 1.0 if dangerous == 0 else report.faults_detected / dangerous
    target = TARGETS[asil].spfm
    coverage_ok = target is None or coverage >= target
    ftti_ok = report.deadline_misses == 0 and report.dropped == 0
    ok = (not asil.is_safety_related) or (ftti_ok and coverage_ok)
    return {
        "asil": asil.name,
        "coverage": coverage,
        "coverage_ok": coverage_ok,
        "ftti_ok": ftti_ok,
        "sdc_free": report.faults_sdc == 0,
        "ok": ok,
    }


@dataclass(frozen=True)
class PlatformReport:
    """Aggregated outcome of one platform execution (O(1) size).

    Attributes:
        label: the platform's human-readable identity.
        spec_hash: :attr:`~repro.api.platform.PlatformSpec.config_hash`
            of the executed spec (provenance).
        policy: placement policy used.
        placement: ``(task label, device name)`` pairs in canonical
            task-label order.
        devices: per-device accounting, keyed by device name — planned
            ``utilisation`` vs ``capacity``, the ``tasks`` placed there,
            and frame counters summed over them.
        tasks: per-task outcome, keyed by task label — the assigned
            ``device``, planned demand, stream headline counters, the
            stream report ``digest`` and the ISO 26262 verdict fields of
            :func:`task_verdict`.
        totals: platform-wide counters (frames, completed, dropped,
            deadline misses, fault outcomes, summed throughput, frame-
            weighted safe rate, longest stream makespan).
        asil: the rollup — ``worst_asil`` across the task set,
            ``violations`` (labels of failing tasks),
            ``worst_failed_asil`` and the overall ``verdict``
            (``"pass"``/``"fail"``).
    """

    label: str
    spec_hash: str
    policy: str
    placement: Tuple[Tuple[str, str], ...]
    devices: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)
    asil: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        """Always True for an executed platform (infeasible specs raise)."""
        return True

    @property
    def all_ok(self) -> bool:
        """True when every task's ISO 26262 verdict passed."""
        return self.asil.get("verdict") == "pass"

    def summary(self) -> str:
        """One-line platform summary for reports."""
        return (
            f"{self.label} [{self.policy}]: devices={len(self.devices)} "
            f"tasks={len(self.tasks)} frames={self.totals.get('frames', 0):g} "
            f"dropped={self.totals.get('dropped', 0):g} "
            f"misses={self.totals.get('deadline_misses', 0):g} "
            f"sdc={self.totals.get('faults_sdc', 0):g} "
            f"asil={self.asil.get('worst_asil', '-')} "
            f"verdict={self.asil.get('verdict', '-')}"
        )

    # ------------------------------------------------------------------
    # canonical plain-data form (bit-identity comparisons, CLI --json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form of the aggregate outcome.

        Two executions of the same spec produce *equal* dictionaries
        regardless of worker counts or task declaration order — the
        object the platform determinism guarantee is stated over (see
        ``docs/PLATFORM.md``).  Per-frame records are structurally
        absent.
        """
        return {
            "label": self.label,
            "spec_hash": self.spec_hash,
            "policy": self.policy,
            "feasible": self.feasible,
            "placement": {task: device for task, device in self.placement},
            "devices": {
                name: dict(sorted(entry.items()))
                for name, entry in sorted(self.devices.items())
            },
            "tasks": {
                label: dict(sorted(entry.items()))
                for label, entry in sorted(self.tasks.items())
            },
            "totals": dict(sorted(self.totals.items())),
            "asil": dict(sorted(self.asil.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Raises:
            PlatformError: when required keys are missing (the signature
                of loading something that is not a platform report) or a
                field has the wrong JSON type (naming the field).
        """
        if not isinstance(data, Mapping):
            raise PlatformError(
                f"PlatformReport expects a mapping, got {data!r}"
            )
        required = ("label", "spec_hash", "policy", "placement", "devices",
                    "tasks", "totals", "asil")
        missing = sorted(set(required) - set(data))
        if missing:
            raise PlatformError(
                f"not a PlatformReport payload; missing: "
                f"{', '.join(missing)}"
            )
        placement = data["placement"]
        if not isinstance(placement, Mapping):
            raise PlatformError(
                "not a PlatformReport payload; 'placement' must map "
                "task labels to device names"
            )

        def typed(name: str, expected: str) -> Any:
            return payload_field(data, name, expected, PlatformError)

        def entries(name: str) -> Dict[str, Dict[str, Any]]:
            table = typed(name, "object")
            return {key: dict(payload_field(table, key, "object",
                                            PlatformError,
                                            label=f"{name}."))
                    for key in table}

        return cls(
            label=typed("label", "str"),
            spec_hash=typed("spec_hash", "str"),
            policy=typed("policy", "str"),
            placement=tuple(sorted(placement.items())),
            devices=entries("devices"),
            tasks=entries("tasks"),
            totals=dict(typed("totals", "numbers")),
            asil=dict(typed("asil", "object")),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def digest(self) -> str:
        """Hex digest of the canonical form (aggregate provenance key)."""
        return payload_digest(self.to_dict())
