"""RunSpec construction, validation and JSON round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import (
    CotsSpec,
    FaultPlanSpec,
    GPUSpec,
    KernelSpec,
    RunSpec,
    SMSpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.cots import COTSDevice
from repro.gpu.kernel import KernelDescriptor


def _specs():
    """A representative zoo of valid specs."""
    return [
        RunSpec(workload=WorkloadSpec(benchmark="hotspot")),
        RunSpec(workload=WorkloadSpec(synthetic="heavy"), policy="half",
                redundancy="tmr", tag="tmr-heavy"),
        RunSpec(
            workload=WorkloadSpec(kernels=(
                KernelSpec(name="k", grid_blocks=4, threads_per_block=64),
            ), repeat=3),
            gpu=GPUSpec(preset="gtx1050ti", dispatch_latency=500.0),
            redundancy="none",
            classify=True,
        ),
        RunSpec(
            workload=WorkloadSpec(benchmark="nn"),
            faults=FaultPlanSpec(transient_ccf=10, permanent_sm=2, seu=3),
            baseline=True,
            seed=7,
        ),
        RunSpec(
            workload=WorkloadSpec(benchmark="cfd"),
            simulate=False,
            cots=CotsSpec(free_ms=0.05),
        ),
    ]


class TestJSONRoundTrip:
    @pytest.mark.parametrize("index", range(5))
    def test_round_trip_exact(self, index):
        spec = _specs()[index]
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_round_trip_via_plain_json(self):
        # the canonical form survives a json.loads/json.dumps cycle
        spec = _specs()[3]
        recoded = json.dumps(json.loads(spec.to_json()), sort_keys=True)
        assert RunSpec.from_json(recoded) == spec

    def test_config_hash_stable_and_distinct(self):
        a, b = _specs()[0], _specs()[1]
        assert a.config_hash == RunSpec.from_json(a.to_json()).config_hash
        assert a.config_hash != b.config_hash

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_json("{not json")

    def test_unknown_field_rejected(self):
        data = _specs()[0].to_dict()
        data["turbo"] = True
        with pytest.raises(ConfigurationError, match="unknown field"):
            RunSpec.from_dict(data)

    def test_missing_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="workload"):
            RunSpec.from_dict({"policy": "srrs"})


class TestCodecTypes:
    """The field-derived codec's type checks and defaulting rules."""

    def test_bool_is_never_an_integer(self):
        with pytest.raises(ConfigurationError,
                           match="RunSpec.copies must be an integer"):
            RunSpec.from_dict({"workload": {"benchmark": "nn"},
                               "copies": True})

    def test_json_int_is_a_number_and_keeps_its_hash(self):
        data = {"workload": {"benchmark": "nn"}, "phase_tolerance": 2}
        spec = RunSpec.from_dict(data)
        assert spec.phase_tolerance == 2
        assert spec.to_dict()["phase_tolerance"] == 2
        assert RunSpec.from_json(spec.to_json()).config_hash == (
            spec.config_hash)

    def test_nested_spec_must_be_an_object(self):
        with pytest.raises(ConfigurationError,
                           match=r"RunSpec.gpu must be an object, got \[1\]"):
            RunSpec.from_dict({"workload": {"benchmark": "nn"}, "gpu": [1]})

    def test_list_items_are_checked_with_their_index(self):
        with pytest.raises(ConfigurationError,
                           match=r"WorkloadSpec.kernels\[0\] must be an "):
            WorkloadSpec.from_dict({"kernels": ["k"]})

    def test_none_keeps_a_default_or_sets_an_optional(self):
        spec = RunSpec.from_dict({"workload": {"benchmark": "nn"},
                                  "policy": None, "gpu": {"preset": None}})
        assert spec.policy == "srrs"
        assert spec.gpu.preset is None

    def test_missing_required_field_is_named(self):
        with pytest.raises(ConfigurationError,
                           match="KernelSpec requires a grid_blocks"):
            KernelSpec.from_dict({"name": "k", "threads_per_block": 32})


class TestValidation:
    def test_unknown_redundancy_mode(self):
        with pytest.raises(ConfigurationError, match="redundancy"):
            RunSpec(workload=WorkloadSpec(benchmark="nn"), redundancy="qmr")

    def test_workload_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            WorkloadSpec()
        with pytest.raises(ConfigurationError, match="exactly one"):
            WorkloadSpec(benchmark="nn", synthetic="short")

    def test_unknown_synthetic_rejected(self):
        with pytest.raises(ConfigurationError, match="synthetic"):
            WorkloadSpec(synthetic="enormous")

    def test_faults_require_simulation(self):
        with pytest.raises(ConfigurationError, match="simulate"):
            RunSpec(workload=WorkloadSpec(benchmark="nn"),
                    simulate=False, faults=FaultPlanSpec())

    def test_fault_plan_counts_are_checked(self):
        plan = FaultPlanSpec(transient_ccf=5, permanent_sm=1, seu=2)
        assert plan.total_injections == 8
        with pytest.raises(ConfigurationError, match="negative"):
            FaultPlanSpec(transient_ccf=-5)
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultPlanSpec(transient_ccf=0, permanent_sm=0, seu=0)
        with pytest.raises(ConfigurationError, match="phase quantum"):
            FaultPlanSpec(phase_quantum=0)

    def test_faults_require_redundancy(self):
        with pytest.raises(ConfigurationError, match="fault campaign"):
            RunSpec(workload=WorkloadSpec(benchmark="nn"),
                    redundancy="none", faults=FaultPlanSpec())

    def test_baseline_requires_redundancy(self):
        with pytest.raises(ConfigurationError, match="baseline"):
            RunSpec(workload=WorkloadSpec(benchmark="nn"),
                    redundancy="none", baseline=True)

    def test_cots_requires_benchmark_workload(self):
        with pytest.raises(ConfigurationError, match="COTS"):
            RunSpec(workload=WorkloadSpec(synthetic="short"),
                    cots=CotsSpec())

    def test_unknown_gpu_preset(self):
        with pytest.raises(ConfigurationError, match="preset"):
            GPUSpec(preset="tpu")

    def test_copies_override(self):
        spec = RunSpec(workload=WorkloadSpec(benchmark="nn"), copies=4)
        assert spec.effective_copies == 4
        assert RunSpec(workload=WorkloadSpec(benchmark="nn"),
                       redundancy="tmr").effective_copies == 3


class TestMirrors:
    def test_gpu_spec_mirrors_arbitrary_config(self, small_gpu):
        assert GPUSpec.from_config(small_gpu).to_config() == small_gpu

    def test_gpu_preset_matches_legacy_factory(self):
        assert GPUSpec(preset="gpgpusim").to_config() == GPUConfig.gpgpusim_like()
        assert (GPUSpec(preset="gpgpusim", num_sms=4).to_config()
                == GPUConfig.gpgpusim_like(num_sms=4))
        assert GPUSpec(preset="gtx1050ti").to_config() == GPUConfig.gtx1050ti_like()

    def test_sm_override(self):
        spec = GPUSpec(preset="generic", sm=SMSpec(max_blocks=2))
        assert spec.to_config().sm == SMConfig(max_blocks=2)

    def test_kernel_spec_mirrors_descriptor(self):
        kd = KernelDescriptor(name="k", grid_blocks=3, threads_per_block=96,
                              work_per_block=123.0, bytes_per_block=45.0)
        assert KernelSpec.from_descriptor(kd).to_descriptor() == kd

    def test_fault_plan_seed_override(self):
        from repro.api.campaign import CampaignSpec

        plan = FaultPlanSpec(seed=1)
        workload = WorkloadSpec(benchmark="hotspot")
        seeded = CampaignSpec(run=RunSpec(workload=workload, seed=42),
                              faults=plan)
        assert seeded.effective_faults == FaultPlanSpec(seed=42)
        assert CampaignSpec(run=RunSpec(workload=workload),
                            faults=plan).effective_faults is plan

    def test_cots_spec_mirrors_device(self):
        device = COTSDevice(h2d_gbps=9.0, free_ms=0.1)
        assert CotsSpec.from_device(device).to_device() == device


class TestWorkloadResolve:
    def test_benchmark_chain(self, gpu):
        chain = WorkloadSpec(benchmark="hotspot").resolve(gpu)
        assert len(chain) == 3
        assert all(k.name == "hotspot/calculate_temp" for k in chain)

    def test_repeat(self, gpu):
        chain = WorkloadSpec(benchmark="nn", repeat=4).resolve(gpu)
        assert len(chain) == 4

    def test_cots_only_benchmark_resolves_empty(self, gpu):
        assert WorkloadSpec(benchmark="cfd").resolve(gpu) == ()

    def test_synthetic_resolves_against_gpu(self, gpu):
        (kernel,) = WorkloadSpec(synthetic="narrow-long").resolve(gpu)
        assert kernel.name == "synthetic/narrow-long"
        assert kernel.grid_blocks <= gpu.num_sms // 2

    def test_labels(self):
        assert WorkloadSpec(benchmark="lud").label == "lud"
        assert WorkloadSpec(synthetic="short").label == "synthetic/short"
