"""Deterministic task placement: binding task streams to devices.

Placement answers one question — *which device executes which task
stream?* — and answers it as a pure function of the
:class:`~repro.api.platform.PlatformSpec`.  No randomness, no wall
clock, no worker count enters the decision:

* the **demand** of a task on a device is its mean per-frame service
  time there (simulated redundant makespan on the device's GPU plus the
  device's COTS protocol overhead) divided by the task's arrival period
  — a utilisation fraction;
* tasks are considered in the spec's canonical ``(label, config_hash)``
  order (declaration order never matters);
* every policy is a deterministic fold over that order, with ties broken
  by device declaration order.

Policies (:data:`repro.api.platform.PLACEMENT_POLICIES`):

* ``first_fit`` — scan devices in declaration order, take the first
  whose utilisation stays within capacity;
* ``worst_fit`` — take the currently least-utilised device with enough
  headroom (spreads load);
* ``balanced`` — longest-demand-first worst-fit: place the hungriest
  tasks first, each onto the least-utilised fitting device (the classic
  LPT makespan-balancing heuristic);
* ``pinned`` — every task must be pinned via
  :attr:`~repro.api.platform.PlacementSpec.pins`.

Pins are hard constraints under *every* policy.  A task that fits
nowhere raises :class:`~repro.errors.PlatformError` naming the task —
the platform's admission verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.api.platform import DeviceSpec, PlatformSpec
from repro.api.spec import RunSpec
from repro.api.stream import StreamSpec
from repro.errors import PlatformError
from repro.gpu.cots import protocol_overhead_ms
from repro.redundancy.manager import clean_run

__all__ = ["TaskDemand", "PlatformPlan", "bind_task", "task_demand",
           "plan_placement"]


@dataclass(frozen=True)
class TaskDemand:
    """Load one task stream puts on one device.

    Attributes:
        task: task label.
        device: device name.
        service_ms: mean per-frame simulated service time on the
            device's GPU (over the workload rotation).
        protocol_ms: mean per-frame COTS protocol overhead on the device
            (transfers, launches, barriers, DCLS comparison).
        utilisation: ``(service_ms + protocol_ms) / period_ms`` — the
            long-run fraction of the device this task consumes.
    """

    task: str
    device: str
    service_ms: float
    protocol_ms: float
    utilisation: float


@dataclass(frozen=True)
class PlatformPlan:
    """The placement decision for one platform spec.

    Attributes:
        policy: placement policy used.
        assignments: ``(task label, device name)`` pairs in canonical
            task-label order.
        demands: the per-assignment :class:`TaskDemand`, keyed by task
            label.
        device_utilisation: summed demand per device (every device of
            the platform appears, idle ones at ``0.0``).
    """

    policy: str
    assignments: Tuple[Tuple[str, str], ...]
    demands: Dict[str, TaskDemand]
    device_utilisation: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for the ``platform plan`` CLI output."""
        return {
            "policy": self.policy,
            "assignments": {task: device for task, device in self.assignments},
            "demand": {
                label: {
                    "device": d.device,
                    "service_ms": d.service_ms,
                    "protocol_ms": d.protocol_ms,
                    "utilisation": d.utilisation,
                }
                for label, d in sorted(self.demands.items())
            },
            "device_utilisation": dict(sorted(
                self.device_utilisation.items()
            )),
        }


# ----------------------------------------------------------------------
def bind_task(task: StreamSpec, device: DeviceSpec) -> StreamSpec:
    """The task stream as executed on a concrete device.

    The device's simulated GPU replaces the run template's GPU — that is
    the whole heterogeneity mechanism: the same kernel chain simulates
    to different service times on different devices.
    """
    return replace(task, run=replace(task.run, gpu=device.gpu_spec()))


def _simulated_service_ms(run_spec: RunSpec, validate: bool) -> float:
    """Redundant makespan of one frame job in milliseconds."""
    run = clean_run(run_spec, validate=validate, error=PlatformError)
    return run.sim.gpu.cycles_to_ms(run.makespan)


def task_demand(task: StreamSpec, device: DeviceSpec, *,
                validate: bool = True,
                _cache: Optional[Dict[str, float]] = None) -> TaskDemand:
    """Compute the load ``task`` puts on ``device``.

    Pure and seed-independent: service times come from the clean
    redundant simulation on the device's GPU, protocol overheads from
    the device's :class:`~repro.gpu.cots.COTSDevice` arithmetic; the
    stream's PRNG seed never enters.

    Args:
        task: the task stream.
        device: the candidate device.
        validate: forward the simulator's trace-validation switch.
        _cache: optional memo of ``run-spec config_hash -> service_ms``
            shared across calls (used by :func:`plan_placement` to
            simulate each distinct frame job once per platform).
    """
    cache = _cache if _cache is not None else {}
    gpu_spec = device.gpu_spec()
    gpu = gpu_spec.to_config()
    cots = device.cots_device()
    rotation = list(task.workload_mix) or [task.run.workload]
    service_sum = 0.0
    protocol_sum = 0.0
    for workload in rotation:
        run_spec = replace(task.run, gpu=gpu_spec, workload=workload)
        key = run_spec.config_hash
        if key not in cache:
            cache[key] = _simulated_service_ms(run_spec, validate)
        service_sum += cache[key]
        kernels = workload.resolve(gpu)
        protocol_sum += protocol_overhead_ms(
            cots,
            input_mb=sum(k.input_bytes for k in kernels) / 1e6,
            output_mb=sum(k.output_bytes for k in kernels) / 1e6,
            n_launches=len(kernels),
            copies=task.run.effective_copies,
        )
    service_ms = service_sum / len(rotation)
    protocol_ms = protocol_sum / len(rotation)
    return TaskDemand(
        task=task.label,
        device=device.name,
        service_ms=service_ms,
        protocol_ms=protocol_ms,
        utilisation=(service_ms + protocol_ms) / task.arrival.period_ms,
    )


# ----------------------------------------------------------------------
def plan_placement(spec: PlatformSpec, *,
                   validate: bool = True) -> PlatformPlan:
    """Bind every task stream of the platform to one device.

    A pure function of the spec: same :class:`PlatformSpec` — including
    a task set declared in any order — always yields the identical plan.

    Raises:
        PlatformError: when a task fits on no admissible device (the
            message names the task), when the ``pinned`` policy leaves a
            task unpinned, or when a pin's demand exceeds its device's
            capacity.
    """
    policy = spec.placement.policy
    pins = spec.placement.pin_map
    devices = list(spec.devices)
    by_name = {d.name: d for d in devices}
    order = {d.name: i for i, d in enumerate(devices)}
    cache: Dict[str, float] = {}

    demands: Dict[str, Dict[str, TaskDemand]] = {}
    for task in spec.tasks:
        candidates = (
            [by_name[pins[task.label]]] if task.label in pins else devices
        )
        demands[task.label] = {
            d.name: task_demand(task, d, validate=validate, _cache=cache)
            for d in candidates
        }

    if policy == "pinned":
        unpinned = [t.label for t in spec.tasks if t.label not in pins]
        if unpinned:
            raise PlatformError(
                f"pinned placement leaves task {unpinned[0]!r} unpinned "
                f"({len(unpinned)} task(s) without a pin)"
            )

    tasks = list(spec.tasks)
    if policy == "balanced":
        # longest-demand-first: hungriest tasks placed while bins are
        # empty; demand ranked by its mean across candidate devices
        def mean_demand(task: StreamSpec) -> float:
            per_device = demands[task.label]
            return sum(d.utilisation for d in per_device.values()) / len(
                per_device
            )

        tasks.sort(key=lambda t: (-mean_demand(t), t.label, t.config_hash))

    utilisation = {d.name: 0.0 for d in devices}
    assignment: Dict[str, str] = {}
    for task in tasks:
        label = task.label
        fitting = [
            name for name, demand in demands[label].items()
            if utilisation[name] + demand.utilisation
            <= by_name[name].capacity
        ]
        if not fitting:
            tried = min(
                demands[label].values(),
                key=lambda d: utilisation[d.device] + d.utilisation,
            )
            raise PlatformError(
                f"cannot place task {label!r} under {policy!r}: best "
                f"candidate {tried.device!r} would reach utilisation "
                f"{utilisation[tried.device] + tried.utilisation:.3f} > "
                f"capacity {by_name[tried.device].capacity:g}"
            )
        if policy == "first_fit" or label in pins:
            chosen = min(fitting, key=lambda name: order[name])
        else:  # worst_fit, balanced, (pinned is always in `pins`)
            chosen = min(
                fitting, key=lambda name: (utilisation[name], order[name])
            )
        assignment[label] = chosen
        utilisation[chosen] += demands[label][chosen].utilisation

    assignments = tuple(sorted(assignment.items()))
    return PlatformPlan(
        policy=policy,
        assignments=assignments,
        demands={
            label: demands[label][device] for label, device in assignments
        },
        device_utilisation=utilisation,
    )
