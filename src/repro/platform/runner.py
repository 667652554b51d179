"""The platform engine: place, execute per device, roll up.

:func:`run_platform` turns a :class:`~repro.api.platform.PlatformSpec`
into a :class:`~repro.platform.report.PlatformReport` in three stages:

1. **placement** (:mod:`repro.platform.placement`) — pure, seed- and
   worker-independent binding of every task stream to one device;
   infeasible platforms raise :class:`~repro.errors.PlatformError`
   naming the unplaceable task before anything executes;
2. **per-device stream execution** — each device's tasks run through
   the virtual-time stream engine (:func:`repro.streams.runner.run_stream`)
   on the device's GPU, with the device's per-frame COTS protocol
   overhead folded into every service time.  With ``workers > 1`` the
   devices fan out over a process pool (:func:`repro.exec.map_tasks`),
   one pool task per device — the natural parallel grain, since streams
   on different devices share nothing;
3. **rollup** (:mod:`repro.platform.report`) — per-device utilisation,
   global deadline/FTTI accounting and the ISO 26262 worst-task verdict
   fold into one canonical report.

Determinism contract: the report is a pure function of the spec.  Every
stream is deterministic, placement is pure, and the fold always walks
tasks in canonical label order — so ``PlatformReport.digest()`` is
bit-identical across any ``workers`` count and any task-declaration
order (proven by ``tests/platform/test_platform_runner.py`` and soaked
at 8-device scale by ``benchmarks/bench_platform.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.api.platform import PlatformSpec
from repro.api.stream import StreamSpec
from repro.errors import WorkerCountError
from repro.iso26262.asil import Asil, as_asil
from repro.exec import map_tasks
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.platform.placement import PlatformPlan, bind_task, plan_placement
from repro.platform.report import PlatformReport, task_verdict
from repro.streams.report import StreamReport
from repro.streams.runner import run_stream

__all__ = ["run_platform"]

#: One pool task: (device name, [(label, stream spec JSON, protocol ms)],
#: validate).
_DeviceItem = Tuple[str, List[Tuple[str, str, float]], bool]


def _run_device(item: _DeviceItem,
                telemetry: Telemetry) -> List[Dict[str, Any]]:
    """Pool task: run one device's task streams under a ``device`` span.

    ``telemetry`` is the caller's session in-process and a worker
    sidecar in a pool; either way the device's streams are instrumented
    in full.
    """
    name, tasks, validate = item
    reports = []
    with telemetry.span("device", device=name, tasks=len(tasks)):
        for _, spec_json, protocol_ms in tasks:
            spec = StreamSpec.from_json(spec_json)
            report = run_stream(
                spec, service_offset_ms=protocol_ms, validate=validate,
                telemetry=telemetry,
            )
            reports.append(report.to_dict())
    return reports


def run_platform(spec: PlatformSpec, *, workers: int = 1,
                 validate: bool = True,
                 telemetry: Optional[Telemetry] = None) -> PlatformReport:
    """Execute one vehicle platform and fold its rollup report.

    Args:
        spec: the declarative platform.
        workers: process count for per-device execution (one pool task
            per device; ``1`` executes in-process); never changes the
            report.
        validate: forward the simulator's trace-validation switch.
        telemetry: optional :class:`~repro.obs.session.Telemetry`
            session receiving placement/execute/fold spans and
            per-device lifecycle events; never changes the report.

    Returns:
        The aggregate :class:`~repro.platform.report.PlatformReport` —
        bit-identical (``report.digest()``) for any ``workers`` count
        and any task-declaration order.

    Raises:
        WorkerCountError: for ``workers < 1``.
        PlatformError: for infeasible placements (the message names the
            unplaceable task).
    """
    if workers < 1:
        raise WorkerCountError("workers must be >= 1")
    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    with tm.span("placement"):
        plan = plan_placement(spec, validate=validate)

        by_label = {task.label: task for task in spec.tasks}
        per_device: Dict[str, List[Tuple[str, str, float]]] = {}
        for label, device_name in plan.assignments:
            bound = bind_task(by_label[label], spec.device(device_name))
            per_device.setdefault(device_name, []).append(
                (label, bound.to_json(), plan.demands[label].protocol_ms)
            )

        # canonical device order (declaration order) for the execution fold
        items: List[_DeviceItem] = [
            (d.name, per_device[d.name], validate)
            for d in spec.devices if d.name in per_device
        ]
    tm.emit("run_start", kind="platform", label=spec.label,
            spec_hash=spec.config_hash, devices=len(items),
            tasks=len(plan.assignments), workers=workers)

    with tm.span("execute", devices=len(items), workers=workers):
        for item in items:
            tm.emit("device_start", device=item[0], tasks=len(item[1]))
        results: List[List[Dict[str, Any]]] = []
        # results arrive in device order as devices finish, so
        # device_end events land while later devices still run
        for payloads in map_tasks(
                _run_device, items, workers=workers,
                keys=[f"device-{item[0]}" for item in items],
                telemetry=tm):
            name = items[len(results)][0]
            results.append(payloads)
            if tm.enabled:
                # orchestrator-side lifecycle accounting
                tm.metrics.add("devices")
                tm.emit("device_end", device=name, tasks=len(payloads),
                        completed=sum(p["completed"] for p in payloads),
                        dropped=sum(p["dropped"] for p in payloads))
                tm.beat("platform", len(results), len(items),
                        rate_counter="devices", unit="devices/s")

    reports: Dict[str, StreamReport] = {}
    for (_, tasks, _), payloads in zip(items, results):
        for (label, _, _), payload in zip(tasks, payloads):
            reports[label] = StreamReport.from_dict(payload)

    with tm.span("fold"):
        report = _fold(spec, plan, reports)
    if tm.enabled:
        tm.beat("platform", len(results), len(items),
                rate_counter="devices", unit="devices/s", force=True)
        tm.emit("run_end", kind="platform", digest=report.digest(),
                verdict=report.asil["verdict"],
                worst_asil=report.asil["worst_asil"])
    return report


# ----------------------------------------------------------------------
def _fold(spec: PlatformSpec, plan: PlatformPlan,
          reports: Dict[str, StreamReport]) -> PlatformReport:
    """Fold per-task stream reports into the canonical platform report."""
    by_label = {task.label: task for task in spec.tasks}
    tasks: Dict[str, Dict[str, Any]] = {}
    for label, device_name in plan.assignments:
        report = reports[label]
        demand = plan.demands[label]
        entry: Dict[str, Any] = {
            "device": device_name,
            "utilisation": demand.utilisation,
            "service_ms": demand.service_ms,
            "protocol_ms": demand.protocol_ms,
            "frames": report.frames,
            "completed": report.completed,
            "dropped": report.dropped,
            "deadline_misses": report.deadline_misses,
            "faults_injected": report.faults_injected,
            "faults_detected": report.faults_detected,
            "faults_sdc": report.faults_sdc,
            "safe_rate": report.safe_rate,
            "throughput_fps": report.throughput_fps,
            "elapsed_ms": report.elapsed_ms,
            "digest": report.digest(),
        }
        entry.update(task_verdict(label, report, asil=by_label[label].asil))
        tasks[label] = entry

    devices: Dict[str, Dict[str, Any]] = {}
    for device in spec.devices:
        placed = [label for label, name in plan.assignments
                  if name == device.name]
        counters = {
            key: float(sum(tasks[label][key] for label in placed))
            for key in ("frames", "completed", "dropped", "deadline_misses",
                        "faults_sdc", "throughput_fps")
        }
        devices[device.name] = {
            "gpu": device.gpu_spec().to_config().name,
            "preset": device.preset,
            "capacity": device.capacity,
            "tasks": placed,
            "utilisation": plan.device_utilisation[device.name],
            **counters,
        }

    totals = {
        key: float(sum(entry[key] for entry in tasks.values()))
        for key in ("frames", "completed", "dropped", "deadline_misses",
                    "faults_injected", "faults_detected", "faults_sdc",
                    "throughput_fps")
    }
    frames = totals["frames"]
    unsafe = (totals["dropped"] + totals["deadline_misses"]
              + totals["faults_sdc"])
    totals["safe_rate"] = (
        max(0.0, (frames - unsafe) / frames) if frames else 0.0
    )
    totals["elapsed_ms"] = max(
        (entry["elapsed_ms"] for entry in tasks.values()), default=0.0
    )

    levels = {label: as_asil(entry["asil"])
              for label, entry in tasks.items()}
    violations = sorted(
        label for label, entry in tasks.items() if not entry["ok"]
    )
    worst_failed = max(
        (levels[label] for label in violations), default=None
    )
    asil = {
        "worst_asil": max(levels.values(), default=Asil.QM).name,
        "violations": violations,
        "worst_failed_asil": (
            worst_failed.name if worst_failed is not None else None
        ),
        "verdict": "fail" if violations else "pass",
    }

    return PlatformReport(
        label=spec.label,
        spec_hash=spec.config_hash,
        policy=plan.policy,
        placement=plan.assignments,
        devices=devices,
        tasks=tasks,
        totals=totals,
        asil=asil,
    )
