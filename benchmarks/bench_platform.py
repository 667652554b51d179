"""Benchmarks of the vehicle-platform subsystem.

Exercises the acceptance scenario of :mod:`repro.platform`: the full
ADAS task set (replicated to eight concurrent streams) placed across
fleets of 1 to 8 devices (frames/s scaling), and an 8-device soak whose
``PlatformReport.digest()`` must be bit-identical across worker counts
*and* across shuffled task-declaration orders.

The ``platform/*`` scenarios emit ``BENCH_platform.json`` at the
repository root (wall seconds, frames/sec, per-point digests) so CI can
track platform throughput across PRs.  They run meaningfully under every
pytest-benchmark mode, including ``--benchmark-disable``.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from _bench_artifacts import BenchArtifact

from repro.analysis.platform import device_count_sweep
from repro.api import (
    DeviceSpec,
    PlacementSpec,
    PlatformSpec,
    StreamFaultSpec,
    StreamSpec,
)
from repro.platform import run_platform

_TASK_NAMES = ("camera-perception", "radar-cfar", "lidar-segmentation",
               "trajectory-scoring")
_PRESETS = ("gtx1050ti", "pcie4-discrete", "embedded-igpu")

_ARTIFACT = BenchArtifact(
    "BENCH_platform.json", "bench-platform/v2",
    "benchmarks/bench_platform.py",
)
_record = _ARTIFACT.record


def _task_set(frames: int, *, faults: bool = False) -> Tuple[StreamSpec, ...]:
    """The ADAS library replicated to eight uniquely-tagged streams."""
    overrides = {}
    if faults:
        overrides["faults"] = StreamFaultSpec(probability=0.005)
    return tuple(
        StreamSpec.for_task(name, frames=frames, tag=f"{name}#{replica}",
                            **overrides)
        for replica in range(2)
        for name in _TASK_NAMES
    )


def test_platform_device_scaling(benchmark):
    """BENCH scenario ``platform/scale``: eight ADAS streams on fleets of
    1, 2, 4 and 8 devices — per-point wall seconds and frames/sec.
    """
    frames = 2000
    tasks = _task_set(frames)
    counts = [1, 2, 4, 8]

    def run():
        rows: List[object] = []
        for count in counts:
            t0 = time.perf_counter()
            row = device_count_sweep(tasks, [count],
                                     workers=min(count, 4))[0]
            wall = time.perf_counter() - t0
            rows.append(row)
            _record(
                f"platform/scale_{count}dev",
                devices=count,
                tasks=row.tasks,
                frames=row.frames,
                wall_s=round(wall, 3),
                frames_per_sec=round(row.frames / wall, 1),
                max_utilisation=round(row.max_utilisation, 4),
                verdict=row.verdict,
                digest=row.digest,
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(row.frames == 8 * frames for row in rows)
    assert all(row.verdict == "pass" for row in rows)
    # spreading the same load over more devices lowers the peak
    assert rows[-1].max_utilisation <= rows[0].max_utilisation


def test_platform_soak_8dev_bit_identity(benchmark):
    """BENCH scenario ``platform/soak_8dev``: 200k frames across a
    heterogeneous 8-device fleet with a 0.5% fault overlay, executed at
    ``workers`` 1 and 4 and with the task set declared in reverse order
    — all three report digests must match.
    """
    frames = 25_000
    tasks = _task_set(frames, faults=True)
    devices = tuple(
        DeviceSpec(name=f"gpu{i}", preset=_PRESETS[i % len(_PRESETS)])
        for i in range(8)
    )
    spec = PlatformSpec(devices=devices, tasks=tasks,
                        placement=PlacementSpec(policy="balanced"),
                        tag="soak-8dev")
    shuffled = PlatformSpec(devices=devices, tasks=tuple(reversed(tasks)),
                            placement=PlacementSpec(policy="balanced"),
                            tag="soak-8dev")
    assert shuffled.config_hash == spec.config_hash

    def run():
        t0 = time.perf_counter()
        baseline = run_platform(spec, workers=1)
        baseline_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        pooled = run_platform(spec, workers=4)
        pooled_s = time.perf_counter() - t0

        reordered = run_platform(shuffled, workers=2)

        assert baseline.digest() == pooled.digest()
        assert baseline.digest() == reordered.digest()
        assert baseline.to_dict() == pooled.to_dict()

        total = baseline.totals.frames
        _record(
            "platform/soak_8dev",
            devices=8,
            tasks=len(baseline.tasks),
            frames=total,
            fault_probability=0.005,
            wall_s=round(baseline_s, 3),
            pooled_wall_s=round(pooled_s, 3),
            frames_per_sec=round(total / baseline_s, 1),
            dropped=baseline.totals.dropped,
            deadline_misses=baseline.totals.deadline_misses,
            sdc=baseline.totals.faults_sdc,
            worst_asil=baseline.asil.worst_asil,
            verdict=baseline.asil.verdict,
            digest=baseline.digest(),
            bit_identical=True,
        )
        return baseline

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.totals.frames == 8 * frames
    assert report.totals.faults_sdc == 0  # SRRS/HALF detect everything
    assert report.all_ok
