"""Engine semantics: legacy equivalence, batch determinism, artifacts."""

from __future__ import annotations

import pytest

from repro.api import (
    Engine,
    FaultPlanSpec,
    RunSpec,
    WorkloadSpec,
    build_scenario,
)
from repro.api.spec import CotsSpec, GPUSpec
from repro.errors import ConfigurationError
from repro.gpu.cots import COTSDevice, cots_end_to_end
from repro.gpu.kernel import dependent_chain
from repro.gpu.scheduler.registry import PAPER_POLICIES, make_scheduler
from repro.gpu.simulator import simulate
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.rodinia import FIG4_BENCHMARKS, get_benchmark

ENGINE = Engine()

class TestLegacyEquivalence:
    @pytest.mark.parametrize("bench_name", FIG4_BENCHMARKS)
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_engine_matches_manager_on_fig4(self, gpu, bench_name, policy):
        """Engine.run ≡ RedundantKernelManager.run, bit for bit."""
        artifact = ENGINE.run(
            RunSpec(workload=WorkloadSpec(benchmark=bench_name),
                    policy=policy, tag=bench_name)
        )
        legacy = RedundantKernelManager(gpu, policy).run(
            list(get_benchmark(bench_name).kernels), tag=bench_name
        )
        assert artifact.timing.busy_cycles == legacy.sim.trace.busy_cycles
        assert artifact.timing.makespan == legacy.sim.makespan
        assert artifact.diversity.fully_diverse == legacy.diversity.fully_diverse
        assert artifact.comparisons.all_clean == legacy.all_clean
        assert artifact.scheduler == legacy.sim.scheduler_name

    def test_engine_matches_cots_model_on_fig5(self):
        device = COTSDevice()
        for benchmark in ("cfd", "nn", "streamcluster"):
            artifact = ENGINE.run(
                RunSpec(workload=WorkloadSpec(benchmark=benchmark),
                        simulate=False, cots=CotsSpec())
            )
            bench = get_benchmark(benchmark)
            assert artifact.cots.baseline_ms == cots_end_to_end(
                bench, device).total_ms
            assert artifact.cots.redundant_ms == cots_end_to_end(
                bench, device, redundant=True).total_ms

    def test_plain_simulation_matches_simulate(self, gpu):
        chain = list(get_benchmark("hotspot").kernels)
        artifact = ENGINE.run(
            RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    redundancy="none", policy="default")
        )
        legacy = simulate(gpu, make_scheduler("default"),
                          dependent_chain(chain))
        assert artifact.timing.makespan == legacy.makespan
        assert artifact.timing.busy_cycles == legacy.trace.busy_cycles
        assert artifact.diversity is None
        assert artifact.comparisons is None


class TestBatchExecution:
    def _specs(self):
        return build_scenario("fig4", benchmarks=("nn", "gaussian")) + [
            RunSpec(workload=WorkloadSpec(benchmark="nn"),
                    faults=FaultPlanSpec(transient_ccf=10, permanent_sm=2,
                                         seu=3)),
            RunSpec(workload=WorkloadSpec(benchmark="cfd"), simulate=False,
                    cots=CotsSpec()),
        ]

    def test_run_many_deterministic_across_worker_counts(self):
        specs = self._specs()
        sequential = ENGINE.run_many(specs, workers=1)
        parallel = ENGINE.run_many(specs, workers=4)
        assert sequential == parallel

    def test_run_many_preserves_order(self):
        specs = self._specs()
        artifacts = ENGINE.run_many(specs, workers=3)
        assert [a.spec for a in artifacts] == specs

    def test_stream_yields_in_order(self):
        specs = self._specs()[:3]
        streamed = list(ENGINE.stream(specs, workers=2))
        assert streamed == ENGINE.run_many(specs, workers=1)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ENGINE.run_many([], workers=0)

    def test_stream_validates_eagerly(self):
        # the error must fire at call time, not at first iteration
        with pytest.raises(ConfigurationError):
            ENGINE.stream(self._specs(), workers=0)


class TestArtifact:
    def test_baseline_and_overhead(self):
        artifact = ENGINE.run(
            RunSpec(workload=WorkloadSpec(benchmark="myocyte"),
                    baseline=True)
        )
        assert artifact.timing.baseline_makespan is not None
        assert artifact.timing.makespan > artifact.timing.baseline_makespan

    def test_provenance(self):
        import repro

        spec = RunSpec(workload=WorkloadSpec(benchmark="nn"))
        artifact = ENGINE.run(spec)
        assert artifact.config_hash == spec.config_hash
        assert artifact.version == repro.__version__

    def test_artifact_from_dict_requires_spec(self):
        from repro.api import RunArtifact

        with pytest.raises(ConfigurationError, match="spec"):
            RunArtifact.from_json("{}")

    def test_artifact_from_dict_requires_config_hash(self):
        from repro.api import RunArtifact

        with pytest.raises(ConfigurationError,
                           match="RunArtifact requires a config_hash"):
            RunArtifact.from_dict({"spec": {"workload": {"benchmark": "nn"}},
                                   "version": "0"})

    def test_artifact_json_round_trip(self):
        spec = RunSpec(
            workload=WorkloadSpec(benchmark="nn"),
            faults=FaultPlanSpec(transient_ccf=5, permanent_sm=1, seu=1),
            classify=True,
        )
        artifact = ENGINE.run(spec)
        from repro.api import RunArtifact

        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_fault_plan_on_chainless_workload_rejected(self):
        # cfd has a COTS profile but no simulated kernel chain
        with pytest.raises(ConfigurationError, match="no kernel chain"):
            ENGINE.run(
                RunSpec(workload=WorkloadSpec(benchmark="cfd"),
                        faults=FaultPlanSpec())
            )

    def test_custom_gpu_round_trips_through_spec(self, small_gpu):
        artifact = ENGINE.run(
            RunSpec(workload=WorkloadSpec(benchmark="nn"),
                    gpu=GPUSpec.from_config(small_gpu))
        )
        legacy = RedundantKernelManager(small_gpu, "srrs").run(
            list(get_benchmark("nn").kernels)
        )
        assert artifact.timing.busy_cycles == legacy.sim.trace.busy_cycles


class TestChunkedBatches:
    """Large batches ship to workers in chunks; results stay identical."""

    def test_large_batch_chunked_equals_sequential(self):
        # 18 specs over 2 workers -> chunksize > 1 exercises chunked map
        specs = [
            RunSpec(workload=WorkloadSpec(benchmark=name))
            for name in ("nn", "gaussian", "backprop")
        ] * 6
        sequential = ENGINE.run_many(specs, workers=1)
        chunked = ENGINE.run_many(specs, workers=2)
        assert chunked == sequential
        assert [a.spec for a in chunked] == specs
