"""Tests for SamplingSpec / RepeatSpec and their CampaignSpec wiring."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RepeatSpec,
    RunSpec,
    SamplingSpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError


def _run():
    return RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                   policy="default")


def _faults():
    return FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20, seed=7)


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec(method="stratified")
        assert spec.method == "stratified"
        assert (spec.transient_ccf, spec.permanent_sm, spec.seu) == (1, 1, 1)

    def test_round_trip(self):
        spec = SamplingSpec(method="importance", transient_ccf=1,
                            permanent_sm=8, seu=1)
        data = json.loads(json.dumps(spec.to_dict()))
        assert SamplingSpec.from_dict(data) == spec

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sampling"):
            SamplingSpec(method="sobol")

    def test_non_integer_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            SamplingSpec(method="stratified", permanent_sm=1.5)
        with pytest.raises(ConfigurationError, match="integer"):
            SamplingSpec(method="stratified", seu=True)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            SamplingSpec(method="stratified", transient_ccf=-1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            SamplingSpec(method="stratified", transient_ccf=0,
                         permanent_sm=0, seu=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingSpec.from_dict({"method": "stratified", "bias": 2})

    def test_hashable_and_frozen(self):
        spec = SamplingSpec(method="stratified")
        assert hash(spec) == hash(SamplingSpec(method="stratified"))
        with pytest.raises(Exception):
            spec.method = "importance"


class TestRepeatSpec:
    def test_round_trip(self):
        spec = RepeatSpec(metric="sdc", relative_half_width=0.1,
                          batch=500, max_total=20_000,
                          interval="bootstrap")
        data = json.loads(json.dumps(spec.to_dict()))
        assert RepeatSpec.from_dict(data) == spec

    def test_exactly_one_target(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            RepeatSpec(metric="sdc")
        with pytest.raises(ConfigurationError, match="exactly one"):
            RepeatSpec(metric="sdc", relative_half_width=0.1,
                       half_width=0.01)

    def test_target_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            RepeatSpec(metric="sdc", relative_half_width=0.0)
        with pytest.raises(ConfigurationError, match="positive"):
            RepeatSpec(metric="sdc", half_width=-0.5)

    def test_confidence_bounds(self):
        with pytest.raises(ConfigurationError, match="confidence"):
            RepeatSpec(metric="sdc", half_width=0.1, confidence=1.0)

    def test_batch_and_budget_coherence(self):
        with pytest.raises(ConfigurationError, match="batch"):
            RepeatSpec(metric="sdc", half_width=0.1, batch=0)
        with pytest.raises(ConfigurationError, match="max_total"):
            RepeatSpec(metric="sdc", half_width=0.1, batch=1000,
                       max_total=500)

    def test_unknown_interval_method_rejected(self):
        with pytest.raises(ConfigurationError, match="interval"):
            RepeatSpec(metric="sdc", half_width=0.1, interval="jackknife")

    def test_empty_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="metric"):
            RepeatSpec(metric="", half_width=0.1)


class TestCampaignSpecIntegration:
    def test_sampled_spec_round_trips_through_json(self):
        spec = CampaignSpec(
            run=_run(), faults=_faults(),
            sampling=SamplingSpec(method="stratified", permanent_sm=4),
            repeat=RepeatSpec(metric="sdc", relative_half_width=0.1,
                              batch=100, max_total=1000),
        )
        loaded = CampaignSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.sampling.permanent_sm == 4
        assert loaded.repeat.batch == 100

    def test_legacy_spec_payload_is_unchanged(self):
        spec = CampaignSpec(run=_run(), faults=_faults(), shards=4)
        data = spec.to_dict()
        assert "sampling" not in data
        assert "repeat" not in data

    def test_repeat_budget_defines_total_injections(self):
        spec = CampaignSpec(
            run=_run(), faults=_faults(),
            sampling=SamplingSpec(method="stratified"),
            repeat=RepeatSpec(metric="sdc", relative_half_width=0.2,
                              batch=100, max_total=700),
        )
        assert spec.total_injections == 700

    def test_config_hash_distinguishes_sampling_designs(self):
        plain = CampaignSpec(run=_run(), faults=_faults())
        sampled = CampaignSpec(
            run=_run(), faults=_faults(),
            sampling=SamplingSpec(method="stratified", permanent_sm=4),
        )
        assert plain.config_hash != sampled.config_hash
