"""Tests for StreamSpec / ArrivalSpec / StreamFaultSpec (repro.api.stream)."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, WorkloadSpec
from repro.api.spec import FaultPlanSpec
from repro.api.stream import ArrivalSpec, StreamFaultSpec, StreamSpec
from repro.errors import ConfigurationError


def _run(**kwargs) -> RunSpec:
    defaults = dict(workload=WorkloadSpec(benchmark="hotspot"), policy="srrs")
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestArrivalSpec:
    def test_defaults(self):
        spec = ArrivalSpec()
        assert spec.model == "periodic"
        assert spec.period_ms == pytest.approx(33.3)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(model="bursty")

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(period_ms=0.0)

    def test_jitter_on_non_jittered_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(model="periodic", jitter_ms=1.0)

    def test_jitter_above_half_period_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(model="jittered", period_ms=10.0, jitter_ms=5.1)

    def test_jitter_at_half_period_allowed(self):
        spec = ArrivalSpec(model="jittered", period_ms=10.0, jitter_ms=5.0)
        assert spec.jitter_ms == 5.0

    def test_round_trip(self):
        spec = ArrivalSpec(model="jittered", period_ms=20.0, jitter_ms=2.0)
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec.from_dict({"model": "periodic", "burst": 3})


class TestStreamFaultSpec:
    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            StreamFaultSpec(probability=-0.1)
        with pytest.raises(ConfigurationError):
            StreamFaultSpec(probability=1.1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamFaultSpec(transient_ccf=0, permanent_sm=0, seu=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamFaultSpec(transient_ccf=-1)

    def test_round_trip(self):
        spec = StreamFaultSpec(probability=0.25, seu=5)
        assert StreamFaultSpec.from_dict(spec.to_dict()) == spec


class TestStreamSpecValidation:
    def test_non_simulated_run_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(simulate=False))

    def test_non_redundant_run_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(redundancy="none"))

    def test_inline_fault_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(faults=FaultPlanSpec()))

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), frames=0)

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), queue_depth=-1)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), deadline_ms=0.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), window_ms=0.0)

    def test_bad_quantiles_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), quantiles=())
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), quantiles=(0.5, 1.0))
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), quantiles=(0.9, 0.5))
        with pytest.raises(ConfigurationError):
            StreamSpec(run=_run(), quantiles=(0.5, 0.5))


class TestStreamSpecDefaults:
    def test_effective_deadline_defaults_to_period(self):
        spec = StreamSpec(run=_run(),
                          arrival=ArrivalSpec(period_ms=25.0))
        assert spec.effective_deadline_ms == 25.0
        explicit = StreamSpec(run=_run(), deadline_ms=80.0)
        assert explicit.effective_deadline_ms == 80.0

    def test_effective_window_defaults_to_fifty_periods(self):
        spec = StreamSpec(run=_run(), arrival=ArrivalSpec(period_ms=10.0))
        assert spec.effective_window_ms == 500.0
        explicit = StreamSpec(run=_run(), window_ms=123.0)
        assert explicit.effective_window_ms == 123.0

    def test_label_prefers_tag(self):
        assert StreamSpec(run=_run()).label == "hotspot"
        assert StreamSpec(run=_run(), tag="soak").label == "soak"


class TestStreamSpecSerialisation:
    def test_json_round_trip(self):
        spec = StreamSpec(
            run=_run(),
            arrival=ArrivalSpec(model="jittered", period_ms=33.3,
                                jitter_ms=4.0),
            frames=123,
            queue_depth=2,
            deadline_ms=100.0,
            faults=StreamFaultSpec(probability=0.5),
            workload_mix=(WorkloadSpec(benchmark="hotspot"),
                          WorkloadSpec(synthetic="short")),
            quantiles=(0.5, 0.99),
            window_ms=500.0,
            seed=7,
            tag="round-trip",
        )
        assert StreamSpec.from_json(spec.to_json()) == spec

    def test_config_hash_stable_and_sensitive(self):
        a = StreamSpec(run=_run(), frames=100)
        b = StreamSpec(run=_run(), frames=100)
        c = StreamSpec(run=_run(), frames=101)
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec.from_dict({"run": _run().to_dict(), "fps": 30})

    def test_missing_run_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec.from_dict({"frames": 10})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec.from_json("not json")


class TestForTask:
    def test_camera_perception_defaults(self):
        spec = StreamSpec.for_task("camera-perception", frames=10)
        assert spec.frames == 10
        assert spec.arrival.period_ms == pytest.approx(33.3)
        assert spec.deadline_ms == pytest.approx(100.0)
        assert spec.run.policy == "half"
        assert spec.tag == "camera-perception"
        assert len(spec.run.workload.kernels) == 3

    def test_overrides_forwarded(self):
        spec = StreamSpec.for_task("radar-cfar", frames=5, queue_depth=0,
                                   seed=42)
        assert spec.queue_depth == 0 and spec.seed == 42
        assert spec.run.policy == "srrs"

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec.for_task("parking-assist")

    def test_round_trips_through_json(self):
        spec = StreamSpec.for_task("lidar-segmentation", frames=7)
        assert StreamSpec.from_json(spec.to_json()) == spec
