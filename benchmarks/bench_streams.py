"""Benchmarks of the streaming workload subsystem.

Exercises the acceptance scenario of :mod:`repro.streams`: a soak run of
at least 100k frames completes with O(1) memory (the report is
structurally free of per-frame records), records its frame throughput,
and is bit-identical — same ``StreamReport.digest()`` — across two
different worker/chunk configurations.  A second scenario sweeps the
arrival rate across the saturation knee (frames/sec vs arrival rate).

The ``stream/*`` scenarios emit ``BENCH_streams.json`` at the repository
root (wall seconds, frames/sec, the operating curve, and the digests
proving determinism) so CI can track stream-engine throughput across
PRs.  They run meaningfully under every pytest-benchmark mode, including
``--benchmark-disable``.
"""

from __future__ import annotations

import time

from _bench_artifacts import BenchArtifact

from repro.analysis.streams import arrival_rate_sweep
from repro.api import (
    ArrivalSpec,
    RunSpec,
    StreamFaultSpec,
    StreamSpec,
    WorkloadSpec,
)
from repro.obs import Telemetry
from repro.streams import run_stream

_ARTIFACT = BenchArtifact(
    "BENCH_streams.json", "bench-streams/v2",
    "benchmarks/bench_streams.py",
)
_record = _ARTIFACT.record


def _soak_spec(frames: int) -> StreamSpec:
    # two distinct jobs in the mix so workers=2 really exercises the
    # pooled job-resolution path, not just the chunking knob
    return StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs", tag="soak"),
        arrival=ArrivalSpec(model="jittered", period_ms=0.4, jitter_ms=0.05),
        frames=frames,
        queue_depth=8,
        deadline_ms=2.0,
        faults=StreamFaultSpec(probability=0.01),
        workload_mix=(WorkloadSpec(benchmark="hotspot"),
                      WorkloadSpec(synthetic="short")),
    )


def _assert_no_per_frame_records(payload: object, frames: int,
                                 path: str = "report") -> None:
    """Recursively assert the report holds no frame-sized containers."""
    if isinstance(payload, dict):
        assert len(payload) < frames, f"{path} has {len(payload)} entries"
        for key, value in payload.items():
            _assert_no_per_frame_records(value, frames, f"{path}.{key}")
    elif isinstance(payload, (list, tuple)):
        assert len(payload) < min(frames, 100), (
            f"{path} holds {len(payload)} items — per-frame records?"
        )
        for i, value in enumerate(payload):
            _assert_no_per_frame_records(value, frames, f"{path}[{i}]")


def test_stream_soak_100k_bit_identity(benchmark):
    """BENCH scenario ``stream/soak_100k``: 100k jittered frames with a
    1% fault overlay, run at two different worker/chunk configurations —
    the report digests must match and the report must stay O(1)-sized.
    """
    frames = 100_000
    spec = _soak_spec(frames)

    def run():
        t0 = time.perf_counter()
        baseline = run_stream(spec, workers=1, chunk_frames=65536)
        baseline_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        alternate = run_stream(spec, workers=2, chunk_frames=1009)
        alternate_s = time.perf_counter() - t0

        assert baseline.digest() == alternate.digest()
        assert baseline.to_dict() == alternate.to_dict()
        _assert_no_per_frame_records(baseline.to_dict(), frames)

        # obs-overhead guard: a disabled Telemetry session (null sink,
        # one boolean check per window) must not slow the frame loop —
        # interleaved best-of-3 legs damp scheduler noise (single legs
        # swing a few percent, far more than the true cost);
        # tools/bench_compare.py fails the gate when obs_overhead_frac
        # exceeds 2%
        plain_legs = [baseline_s]
        null_legs = []
        for _ in range(3):
            t0 = time.perf_counter()
            null = run_stream(spec, workers=1, chunk_frames=65536,
                              telemetry=Telemetry())
            null_legs.append(time.perf_counter() - t0)
            assert null.digest() == baseline.digest()
            t0 = time.perf_counter()
            run_stream(spec, workers=1, chunk_frames=65536)
            plain_legs.append(time.perf_counter() - t0)
        obs_overhead_frac = max(
            0.0, round(min(null_legs) / min(plain_legs) - 1.0, 4)
        )

        _record(
            "stream/soak_100k",
            frames=frames,
            fault_probability=0.01,
            wall_s=round(baseline_s, 3),
            alternate_wall_s=round(alternate_s, 3),
            frames_per_sec=round(frames / baseline_s, 1),
            completed=baseline.completed,
            dropped=baseline.dropped,
            deadline_misses=baseline.deadline_misses,
            sdc=baseline.faults.sdc,
            digest=baseline.digest(),
            bit_identical=True,
            obs_overhead_frac=obs_overhead_frac,
        )
        return baseline

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.frames == frames
    assert report.completed + report.dropped == frames
    assert report.faults.sdc == 0  # SRRS detects everything (paper claim)


def test_stream_arrival_rate_sweep(benchmark):
    """BENCH scenario ``stream/rate_sweep``: throughput and miss/drop
    rates across the saturation knee (service time ~0.206 ms).
    """
    spec = StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs", tag="rate-sweep"),
        frames=20_000,
        queue_depth=4,
        deadline_ms=1.0,
    )
    periods = [1.0, 0.5, 0.3, 0.22, 0.18, 0.12]

    def run():
        t0 = time.perf_counter()
        rows = arrival_rate_sweep(spec, periods)
        wall = time.perf_counter() - t0
        for row in rows:
            _record(
                f"stream/rate_sweep_p{row.period_ms:g}ms",
                period_ms=row.period_ms,
                arrival_hz=round(row.arrival_hz, 1),
                frames=row.frames,
                throughput_fps=round(row.throughput_fps, 1),
                utilisation=round(row.utilisation, 4),
                miss_rate=round(row.miss_rate, 4),
                drop_rate=round(row.drop_rate, 4),
                p_tail_ms=round(row.p_tail_ms, 4),
                digest=row.digest,
            )
        _record("stream/rate_sweep",
                points=len(rows), frames_per_point=spec.frames,
                wall_s=round(wall, 3))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # under-loaded points never drop; past saturation the queue spills
    assert rows[0].dropped == 0
    assert rows[-1].dropped > 0
    # utilisation grows monotonically toward saturation
    utils = [row.utilisation for row in rows]
    assert utils == sorted(utils)
