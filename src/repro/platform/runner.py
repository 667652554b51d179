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
3. **rollup** (:mod:`repro.platform.report`) — the per-task outcomes
   and the device specs fold into one canonical report, which derives
   the per-device and global deadline/FTTI totals and the ISO 26262
   worst-task verdict from its tasks.

Determinism contract: the report is a pure function of the spec.  Every
stream is deterministic, placement is pure, and the fold always walks
tasks in canonical label order — so ``PlatformReport.digest()`` is
bit-identical across any ``workers`` count and any task-declaration
order (proven by ``tests/platform/test_platform_runner.py`` and soaked
at 8-device scale by ``benchmarks/bench_platform.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.platform import PlatformSpec
from repro.api.stream import StreamSpec
from repro.errors import WorkerCountError
from repro.exec import map_tasks
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.platform.placement import PlatformPlan, bind_task, plan_placement
from repro.platform.report import (
    PlatformDevice,
    PlatformReport,
    PlatformTask,
    task_asil,
)
from repro.streams.report import StreamReport
from repro.streams.runner import run_stream

__all__ = ["run_platform"]

#: One pool task: (device name, [(label, stream spec JSON, protocol ms)],
#: validate).
_DeviceItem = Tuple[str, List[Tuple[str, str, float]], bool]


def _run_device(item: _DeviceItem,
                telemetry: Telemetry) -> List[StreamReport]:
    """Pool task: run one device's task streams under a ``device`` span.

    ``telemetry`` is the caller's session in-process and a worker
    sidecar in a pool; either way the device's streams are instrumented
    in full.
    """
    name, tasks, validate = item
    with telemetry.span("device", device=name, tasks=len(tasks)):
        return [
            run_stream(StreamSpec.from_json(spec_json),
                       service_offset_ms=protocol_ms, validate=validate,
                       telemetry=telemetry)
            for _, spec_json, protocol_ms in tasks
        ]


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
        results: List[List[StreamReport]] = []
        # results arrive in device order as devices finish, so
        # device_end events land while later devices still run
        for done in map_tasks(
                _run_device, items, workers=workers,
                keys=[f"device-{item[0]}" for item in items],
                telemetry=tm):
            name = items[len(results)][0]
            results.append(done)
            if tm.enabled:
                # orchestrator-side lifecycle accounting
                tm.metrics.add("devices")
                tm.emit("device_end", device=name, tasks=len(done),
                        completed=sum(r.completed for r in done),
                        dropped=sum(r.dropped for r in done))
                tm.beat("platform", len(results), len(items),
                        rate_counter="devices", unit="devices/s")

    reports = {label: report
               for (_, tasks, _), done in zip(items, results)
               for (label, _, _), report in zip(tasks, done)}

    with tm.span("fold"):
        report = _fold(spec, plan, reports)
    if tm.enabled:
        tm.beat("platform", len(results), len(items),
                rate_counter="devices", unit="devices/s", force=True)
        tm.emit("run_end", kind="platform", digest=report.digest(),
                verdict=report.asil.verdict,
                worst_asil=report.asil.worst_asil)
    return report


# ----------------------------------------------------------------------
def _fold(spec: PlatformSpec, plan: PlatformPlan,
          reports: Dict[str, StreamReport]) -> PlatformReport:
    """Fold per-task stream reports into the canonical platform report."""
    by_label = {task.label: task for task in spec.tasks}
    tasks: Dict[str, PlatformTask] = {}
    for label, device_name in plan.assignments:
        report = reports[label]
        demand = plan.demands[label]
        tasks[label] = PlatformTask(
            device=device_name,
            # the spec's level, so tagged replicas of a safety task keep it
            asil=by_label[label].asil or task_asil(label).name,
            utilisation=demand.utilisation,
            service_ms=demand.service_ms,
            protocol_ms=demand.protocol_ms,
            frames=report.frames,
            completed=report.completed,
            dropped=report.dropped,
            deadline_misses=report.deadline_misses,
            faults_injected=report.faults.injected,
            faults_detected=report.faults.detected,
            faults_sdc=report.faults.sdc,
            throughput_fps=report.throughput_fps,
            elapsed_ms=report.elapsed_ms,
            digest=report.digest(),
        )

    return PlatformReport(
        label=spec.label,
        spec_hash=spec.config_hash,
        policy=plan.policy,
        devices={
            device.name: PlatformDevice(
                gpu=device.gpu_spec().to_config().name,
                preset=device.preset,
                capacity=device.capacity,
            )
            for device in spec.devices
        },
        tasks=tasks,
    )
