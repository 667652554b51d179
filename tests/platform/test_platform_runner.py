"""Tests for the platform engine and report rollup (repro.platform)."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, StreamFaultSpec, StreamSpec, WorkloadSpec
from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.errors import PlatformError
from repro.platform.placement import plan_placement
from repro.platform.report import PlatformReport, task_asil
from repro.platform.runner import run_platform
from repro.streams.runner import run_stream
from repro.workloads.adas import ADAS_TASKS


def _task(name: str, **overrides) -> StreamSpec:
    return StreamSpec.for_task(name, frames=200, **overrides)


def _platform(**kwargs) -> PlatformSpec:
    defaults = dict(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="pcie4-discrete"),
                 DeviceSpec(name="gpu2", preset="embedded-igpu")),
        tasks=(_task("camera-perception"), _task("radar-cfar"),
               _task("lidar-segmentation"), _task("trajectory-scoring")),
        placement=PlacementSpec(policy="balanced"),
    )
    defaults.update(kwargs)
    return PlatformSpec(**defaults)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_digest_identical_across_worker_counts(self, workers):
        spec = _platform()
        baseline = run_platform(spec, workers=1)
        pooled = run_platform(spec, workers=workers)
        assert pooled.to_dict() == baseline.to_dict()
        assert pooled.digest() == baseline.digest()

    def test_digest_identical_across_task_declaration_order(self):
        spec = _platform()
        shuffled = _platform(tasks=tuple(reversed(spec.tasks)))
        assert shuffled.config_hash == spec.config_hash
        assert run_platform(shuffled, workers=2).digest() == run_platform(
            spec, workers=1
        ).digest()


class TestReportContents:
    @pytest.fixture(scope="class")
    def report(self):
        return run_platform(_platform())

    def test_provenance(self, report):
        spec = _platform()
        assert report.spec_hash == spec.config_hash
        assert report.policy == "balanced"

    def test_placement_covers_every_task(self, report):
        assert sorted(report.placement) == sorted(report.tasks)
        known = set(report.devices)
        assert all(device in known for device in report.placement.values())

    def test_totals_fold_per_task_counters(self, report):
        for key in ("frames", "completed", "dropped", "deadline_misses"):
            assert getattr(report.totals, key) == sum(
                getattr(entry, key) for entry in report.tasks.values()
            )
        assert report.totals.frames == 4 * 200
        assert report.totals.safe_rate == 1.0

    def test_device_utilisation_within_capacity(self, report):
        for name, entry in report.device_totals.items():
            assert 0.0 <= entry.utilisation <= report.devices[name].capacity

    def test_device_totals_fold_the_tasks_placed_there(self, report):
        for name, entry in report.device_totals.items():
            placed = [task for task in report.tasks.values()
                      if task.device == name]
            assert entry.frames == sum(task.frames for task in placed)
            assert entry.utilisation == pytest.approx(
                sum(task.utilisation for task in placed))

    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    def test_plan_and_report_state_the_same_utilisation(self, n_devices):
        # 15 replicas: placement order and label order sum the demands
        # with different rounding on 1 and 2 devices
        names = [task.name for task in ADAS_TASKS]
        spec = _platform(
            devices=tuple(DeviceSpec(name=f"gpu{i}", preset="gtx1050ti")
                          for i in range(n_devices)),
            tasks=tuple(StreamSpec.for_task(names[i % len(names)],
                                            frames=20, tag=f"replica-{i:02d}")
                        for i in range(15)),
        )
        plan = plan_placement(spec)
        report = run_platform(spec)
        assert plan.device_utilisation == {
            name: entry.utilisation
            for name, entry in report.device_totals.items()}

    def test_task_entries_carry_stream_evidence(self, report):
        for entry in report.tasks.values():
            assert len(entry.digest) == 16
            assert entry.service_ms > 0
            assert entry.protocol_ms > 0

    def test_round_trip(self, report):
        clone = PlatformReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.digest() == report.digest()

    def test_from_dict_rejects_non_reports(self):
        with pytest.raises(PlatformError, match="missing"):
            PlatformReport.from_dict({"hello": "world"})

    def test_summary_mentions_verdict(self, report):
        assert "verdict=pass" in report.summary()


class TestProtocolOverhead:
    def test_platform_task_equals_stream_with_offset(self):
        # a platform task is exactly its stream bound to the device and
        # charged the device's COTS protocol overhead per frame
        from repro.platform.placement import bind_task, task_demand

        task = _task("radar-cfar")
        spec = _platform(devices=(DeviceSpec(name="gpu0"),), tasks=(task,))
        entry = run_platform(spec).tasks["radar-cfar"]
        assert entry.protocol_ms > 0

        device = spec.devices[0]
        bound = bind_task(spec.tasks[0], device)
        offset = task_demand(spec.tasks[0], device).protocol_ms
        with_offset = run_stream(bound, service_offset_ms=offset)
        assert entry.digest == with_offset.digest()
        assert entry.safe_rate == with_offset.safe_rate
        # without the offset the stream is a different (cheaper) system
        assert run_stream(bound).digest() != with_offset.digest()

    def test_negative_offset_rejected(self):
        from repro.errors import StreamError

        with pytest.raises(StreamError):
            run_stream(_task("radar-cfar"), service_offset_ms=-1.0)


class TestIsoRollup:
    def test_adas_tasks_resolve_their_asil(self):
        assert task_asil("camera-perception").name == "D"
        assert task_asil("trajectory-scoring").name == "C"
        assert task_asil("not-in-library").name == "QM"

    def test_clean_platform_passes(self):
        report = run_platform(_platform())
        assert report.all_ok
        assert report.asil.worst_asil == "D"
        assert report.asil.violations == ()
        assert report.asil.worst_failed_asil is None

    def test_tagged_replicas_keep_their_asil(self):
        # replicas need distinct labels; the spec-level asil must keep
        # the safety goal's level rather than degrading to QM
        replica = _task("camera-perception", tag="camera-perception#0")
        assert replica.asil == "D"
        spec = _platform(devices=(DeviceSpec(name="gpu0"),),
                         tasks=(replica,))
        report = run_platform(spec)
        assert report.tasks["camera-perception#0"].asil == "D"
        assert report.asil.worst_asil == "D"

    def test_tagged_replica_failure_fails_the_rollup(self):
        run = RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                      policy="default")
        replica = StreamSpec(run=run, frames=200, tag="camera#1",
                             asil="D",
                             faults=StreamFaultSpec(probability=1.0))
        spec = _platform(devices=(DeviceSpec(name="gpu0"),),
                         tasks=(replica,))
        report = run_platform(spec)
        assert report.asil.violations == ("camera#1",)
        assert report.asil.worst_failed_asil == "D"

    def test_sdc_prone_policy_fails_the_rollup(self):
        # the default scheduler suffers SDCs under faults; label the
        # task as an ADAS safety goal so the verdict has teeth
        run = RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                      policy="default")
        task = StreamSpec(run=run, frames=200, tag="camera-perception",
                          faults=StreamFaultSpec(probability=1.0))
        spec = _platform(devices=(DeviceSpec(name="gpu0"),), tasks=(task,))
        report = run_platform(spec)
        assert report.tasks["camera-perception"].sdc_free is False
        assert not report.all_ok
        assert report.asil.violations == ("camera-perception",)
        assert report.asil.worst_failed_asil == "D"
        assert report.asil.verdict == "fail"

    def test_qm_task_never_fails(self):
        run = RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                      policy="default")
        task = StreamSpec(run=run, frames=200, tag="infotainment",
                          faults=StreamFaultSpec(probability=1.0))
        spec = _platform(devices=(DeviceSpec(name="gpu0"),), tasks=(task,))
        report = run_platform(spec)
        assert report.tasks["infotainment"].asil == "QM"
        assert report.all_ok

    def test_verdict_fields(self):
        spec = _platform(devices=(DeviceSpec(name="gpu0"),),
                         tasks=(_task("radar-cfar"),))
        entry = run_platform(spec).tasks["radar-cfar"]
        verdict = {name: getattr(entry, name)
                   for name in ("asil", *entry.derived_keys)}
        assert verdict == {
            "asil": "D",
            "safe_rate": 1.0,
            "coverage": 1.0,
            "coverage_ok": True,
            "ftti_ok": True,
            "sdc_free": True,
            "ok": True,
        }


class TestAdmissionAtRun:
    def test_infeasible_platform_raises_before_execution(self):
        spec = _platform(
            devices=(DeviceSpec(name="tiny", capacity=1e-6),),
            tasks=(_task("radar-cfar"),),
        )
        with pytest.raises(PlatformError, match="radar-cfar"):
            run_platform(spec)
