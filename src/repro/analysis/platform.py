"""Platform-level measurements (the ``BENCH_platform.json`` rows).

The device-count sweep answers *how does the platform scale with
devices?*; the key/value rows are what the ``platform`` CLI renders.
Every sweep row records the platform report digest, so regenerating the
sweep proves bit-stability of the whole surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.api.stream import StreamSpec
from repro.platform.report import PlatformReport
from repro.platform.runner import run_platform

__all__ = [
    "DeviceCountRow",
    "device_count_sweep",
    "platform_summary_rows",
]


@dataclass(frozen=True)
class DeviceCountRow:
    """One operating point of a device-count scaling sweep.

    Attributes:
        devices: number of devices in the fleet.
        tasks: number of task streams placed.
        frames: frames generated platform-wide.
        max_utilisation: utilisation of the most loaded device.
        throughput_fps: summed stream throughput.
        verdict: the ISO 26262 rollup verdict (``"pass"``/``"fail"``).
        digest: the platform report digest (determinism evidence).
    """

    devices: int
    tasks: int
    frames: float
    max_utilisation: float
    throughput_fps: float
    verdict: str
    digest: str


def device_count_sweep(
    tasks: Sequence[StreamSpec],
    counts: Sequence[int],
    *,
    presets: Sequence[str] = ("gtx1050ti",),
    policy: str = "balanced",
    workers: int = 1,
) -> List[DeviceCountRow]:
    """Run the same task set on fleets of growing size.

    Device ``i`` of an ``n``-device fleet is named ``gpu{i}`` and uses
    ``presets[i % len(presets)]`` — pass several presets to sweep a
    heterogeneous fleet.

    Args:
        tasks: the task streams (labels must be unique).
        counts: fleet sizes to sweep.
        presets: device preset cycle.
        policy: placement policy for every point.
        workers: forwarded to :func:`repro.platform.runner.run_platform`.

    Returns:
        One :class:`DeviceCountRow` per count, in the given order.
    """
    rows: List[DeviceCountRow] = []
    for count in counts:
        spec = PlatformSpec(
            devices=tuple(
                DeviceSpec(name=f"gpu{i}", preset=presets[i % len(presets)])
                for i in range(count)
            ),
            tasks=tuple(tasks),
            placement=PlacementSpec(policy=policy),
            tag=f"{count}-device sweep",
        )
        report = run_platform(spec, workers=workers)
        utils = [t.utilisation for t in report.device_totals.values()]
        rows.append(
            DeviceCountRow(
                devices=count,
                tasks=len(report.tasks),
                frames=report.totals.frames,
                max_utilisation=max(utils),
                throughput_fps=report.totals.throughput_fps,
                verdict=report.asil.verdict,
                digest=report.digest(),
            )
        )
    return rows


def platform_summary_rows(report: PlatformReport) -> List[List[object]]:
    """Key/value rows of one report for ``render_table``."""
    totals = report.totals
    rows: List[List[object]] = [
        ["platform", report.label],
        ["placement policy", report.policy],
        ["devices", len(report.devices)],
        ["tasks", len(report.tasks)],
        ["frames", f"{totals.frames:g}"],
        ["completed", f"{totals.completed:g}"],
        ["dropped", f"{totals.dropped:g}"],
        ["deadline misses", f"{totals.deadline_misses:g}"],
        ["SDCs", f"{totals.faults_sdc:g}"],
        ["safe rate", f"{totals.safe_rate:.4f}"],
        ["throughput (fps)", f"{totals.throughput_fps:.2f}"],
    ]
    device_totals, placement = report.device_totals, report.placement
    for name, device in sorted(report.devices.items()):
        placed = [label for label, on in placement.items() if on == name]
        rows.append([
            f"device {name}",
            f"util={device_totals[name].utilisation:.3f}/{device.capacity:g} "
            f"tasks={','.join(placed) or '-'}",
        ])
    for label, task in sorted(report.tasks.items()):
        rows.append([
            f"task {label}",
            f"{task.device} asil={task.asil} "
            f"ok={task.ok} misses={task.deadline_misses}",
        ])
    rows.append(["worst ASIL", report.asil.worst_asil])
    rows.append(["verdict", report.asil.verdict])
    rows.append(["digest", report.digest()])
    return rows
