"""Tests for the stream engine (repro.streams.runner / jobs)."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, WorkloadSpec
from repro.api.stream import ArrivalSpec, StreamFaultSpec, StreamSpec
from repro.errors import StreamError
from repro.streams.jobs import resolve_jobs
from repro.streams.runner import run_stream


def _spec(**kwargs) -> StreamSpec:
    defaults = dict(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        frames=200,
    )
    defaults.update(kwargs)
    return StreamSpec(**defaults)


class TestJobResolution:
    def test_single_profile_for_plain_run(self):
        profiles = resolve_jobs(_spec())
        assert len(profiles) == 1
        assert profiles[0].label == "hotspot"
        assert profiles[0].service_ms > 0
        assert profiles[0].busy_ms > 0

    def test_mix_maps_rotation_slots(self):
        spec = _spec(workload_mix=(
            WorkloadSpec(benchmark="hotspot"),
            WorkloadSpec(synthetic="short"),
            WorkloadSpec(benchmark="hotspot"),
        ))
        profiles = resolve_jobs(spec)
        assert [p.label for p in profiles] == [
            "hotspot", "synthetic/short", "hotspot",
        ]
        # duplicate workloads share one simulation
        assert profiles[0] is profiles[2]

    def test_empty_workload_rejected(self):
        # cfd is COTS-only: no simulated kernel chain
        spec = _spec(run=RunSpec(workload=WorkloadSpec(benchmark="cfd"),
                                 policy="srrs"))
        with pytest.raises(StreamError, match="'cfd' resolves to no kernels"):
            resolve_jobs(spec)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(StreamError):
            resolve_jobs(_spec(), workers=0)

    def test_worker_pool_matches_inprocess(self):
        spec = _spec(workload_mix=(
            WorkloadSpec(benchmark="hotspot"),
            WorkloadSpec(synthetic="short"),
        ))
        solo = resolve_jobs(spec, workers=1)
        pooled = resolve_jobs(spec, workers=2)
        assert [p.service_ms for p in solo] == [p.service_ms for p in pooled]
        assert [p.busy_ms for p in solo] == [p.busy_ms for p in pooled]


class TestUnderloadedStream:
    def test_all_frames_complete_on_time(self):
        report = run_stream(_spec())
        assert report.frames == 200
        assert report.completed == 200
        assert report.dropped == 0
        assert report.deadline_misses == 0
        assert report.safe_rate == 1.0

    def test_latency_equals_service_when_no_queueing(self):
        report = run_stream(_spec())
        service = report.service_ms["hotspot"]
        assert report.latency_ms["min"] == pytest.approx(service)
        assert report.latency_ms["max"] == pytest.approx(service)
        assert report.wait_ms["max"] == 0.0

    def test_throughput_tracks_arrival_rate(self):
        spec = _spec(arrival=ArrivalSpec(period_ms=10.0))
        report = run_stream(spec)
        assert report.throughput_fps == pytest.approx(100.0, rel=0.02)


class TestOverloadedStream:
    def test_backpressure_drops_and_misses(self):
        # service ~0.206 ms, arrivals every 0.1 ms: hard overload
        spec = _spec(arrival=ArrivalSpec(period_ms=0.1), frames=500,
                     queue_depth=2, deadline_ms=0.3)
        report = run_stream(spec)
        assert report.dropped > 0
        assert report.deadline_misses > 0
        assert report.completed + report.dropped == 500
        assert report.utilisation > 0.9

    def test_zero_queue_depth_admits_only_idle_server(self):
        spec = _spec(arrival=ArrivalSpec(period_ms=0.1), frames=100,
                     queue_depth=0)
        report = run_stream(spec)
        assert report.dropped > 0
        assert report.wait_ms["max"] == 0.0  # admitted frames never wait

    def test_deeper_queue_trades_drops_for_latency(self):
        arrival = ArrivalSpec(period_ms=0.15)
        shallow = run_stream(_spec(arrival=arrival, frames=400,
                                   queue_depth=1))
        deep = run_stream(_spec(arrival=arrival, frames=400,
                                queue_depth=16))
        assert deep.dropped < shallow.dropped
        assert deep.latency_ms["max"] > shallow.latency_ms["max"]


class TestFaultOverlay:
    def test_detected_faults_reexecute_and_add_latency(self):
        clean = run_stream(_spec())
        faulted = run_stream(_spec(faults=StreamFaultSpec(probability=1.0)))
        assert faulted.faults.injected == 200
        assert (faulted.faults.masked + faulted.faults.detected
                + faulted.faults.sdc) == 200
        assert faulted.faults.re_executions == faulted.faults.detected
        assert faulted.faults.sdc == 0  # SRRS detects everything
        assert faulted.latency_ms["max"] > clean.latency_ms["max"]

    def test_default_policy_suffers_sdc(self):
        spec = _spec(run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                                 policy="default"),
                     faults=StreamFaultSpec(probability=1.0))
        report = run_stream(spec)
        assert report.faults.sdc > 0
        assert report.safe_rate < 1.0

    def test_zero_probability_equals_no_overlay(self):
        base = run_stream(_spec())
        zero = run_stream(_spec(faults=StreamFaultSpec(probability=0.0)))
        assert zero.faults.injected == 0
        assert zero.latency_ms == base.latency_ms

    def test_tight_deadline_turns_detections_into_misses(self):
        service = resolve_jobs(_spec())[0].service_ms
        # budget fits one execution but not the re-execution
        spec = _spec(faults=StreamFaultSpec(probability=1.0),
                     deadline_ms=service * 1.5)
        report = run_stream(spec)
        assert report.deadline_misses == report.faults.detected
        assert report.deadline_misses > 0


class TestDeterminism:
    def test_digest_identical_across_worker_and_chunk_configs(self):
        spec = _spec(
            arrival=ArrivalSpec(model="jittered", period_ms=0.25,
                                jitter_ms=0.1),
            frames=2000,
            queue_depth=3,
            faults=StreamFaultSpec(probability=0.1),
            workload_mix=(WorkloadSpec(benchmark="hotspot"),
                          WorkloadSpec(synthetic="short")),
        )
        baseline = run_stream(spec, workers=1, chunk_frames=2048)
        alternates = [
            run_stream(spec, workers=2, chunk_frames=2048),
            run_stream(spec, workers=1, chunk_frames=7),
            run_stream(spec, workers=3, chunk_frames=501),
        ]
        for alternate in alternates:
            assert alternate.to_dict() == baseline.to_dict()
            assert alternate.digest() == baseline.digest()

    def test_seed_changes_jittered_stream(self):
        spec = _spec(arrival=ArrivalSpec(model="jittered", period_ms=0.25,
                                         jitter_ms=0.1), frames=500,
                     queue_depth=1)
        a = run_stream(spec)
        b = run_stream(StreamSpec.from_dict({**spec.to_dict(), "seed": 1}))
        assert a.digest() != b.digest()

    def test_poisson_stream_deterministic(self):
        spec = _spec(arrival=ArrivalSpec(model="poisson", period_ms=0.3),
                     frames=1000, queue_depth=2)
        assert run_stream(spec).digest() == run_stream(
            spec, chunk_frames=13
        ).digest()

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(StreamError):
            run_stream(_spec(), chunk_frames=0)


class TestReportContents:
    def test_provenance(self):
        spec = _spec(tag="prov")
        report = run_stream(spec)
        assert report.spec_hash == spec.config_hash
        assert report.label == "prov"
        assert report.seed == spec.seed
        assert report.policy.startswith("srrs")

    def test_every_spec_quantile_is_tracked(self):
        report = run_stream(_spec(quantiles=(0.5, 0.999)))
        assert {"p50", "p99.9"} <= set(report.latency_ms)
        assert "p99" not in report.latency_ms

    def test_windows_present(self):
        report = run_stream(_spec())
        assert report.windows.windows >= 1.0
        assert 0.0 <= report.windows.util_max <= 1.0
