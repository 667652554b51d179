"""A batch simulates each distinct baseline once.

``Engine.stream`` runs the ``baseline: true`` specs of one ``(gpu,
workload)`` as one task, so their baseline is simulated once at any
worker count.  These tests pin the contract that makes the grouping
invisible in results: a shared baseline is the float a fresh simulation
returns, different SM counts or repeats never share one, and artifacts
come back in spec order.
"""

from __future__ import annotations

import pytest

from repro.api.engine import Engine
from repro.api.spec import GPUSpec, RunSpec, WorkloadSpec
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import dependent_chain
from repro.gpu.scheduler import DefaultScheduler
from repro.gpu.simulator import GPUSimulator
from repro.workloads.rodinia import get_benchmark

POLICIES = ("default", "half", "srrs", "staggered")


@pytest.fixture
def baselines(monkeypatch):
    """The single-copy ``GPUSimulator.run`` calls made from now on."""
    calls = []
    original = GPUSimulator.run

    def counting(self, launches):
        result = original(self, launches)
        if all(launch.copy_id == 0 for launch in launches):
            calls.append(result.makespan)
        return result

    monkeypatch.setattr(GPUSimulator, "run", counting)
    return calls


def _fresh_makespan(gpu: GPUConfig, kernels) -> float:
    """The baseline simulated from scratch, bypassing the engine."""
    return GPUSimulator(gpu, DefaultScheduler()).run(
        dependent_chain(list(kernels))
    ).makespan


def _spec(bench="hotspot", policy="srrs", sms=6, repeat=1, tag=""):
    return RunSpec(workload=WorkloadSpec(benchmark=bench, repeat=repeat),
                   policy=policy, gpu=GPUSpec(num_sms=sms), baseline=True,
                   tag=tag)


def _baseline_of(artifact) -> str:
    return artifact.timing.baseline_makespan.hex()


class TestSharedBaseline:
    def test_is_a_fresh_simulation_to_the_bit(self, baselines):
        specs = [_spec("hotspot", policy, repeat=2, tag=f"t{i}")
                 for i, policy in enumerate(POLICIES)]
        artifacts = Engine().run_many(specs)
        assert len(baselines) == 1
        fresh = _fresh_makespan(GPUConfig.gpgpusim_like(),
                                get_benchmark("hotspot").kernels * 2)
        assert {_baseline_of(a) for a in artifacts} == {fresh.hex()}

    def test_sm_counts_never_share_a_baseline(self, baselines):
        specs = [_spec("hotspot", policy, sms=sms)
                 for sms in (6, 30) for policy in ("half", "srrs")]
        artifacts = Engine().run_many(specs)
        assert len(baselines) == 2
        chain = get_benchmark("hotspot").kernels
        for artifact in artifacts:
            gpu = GPUConfig.gpgpusim_like(artifact.spec.gpu.num_sms)
            assert _baseline_of(artifact) == _fresh_makespan(gpu, chain).hex()

    def test_repeats_never_share_a_baseline(self, baselines):
        specs = [_spec("bfs", policy, repeat=repeat)
                 for repeat in (3, 4, 5) for policy in ("default", "srrs")]
        artifacts = Engine().run_many(specs)
        assert len(baselines) == 3
        gpu = GPUConfig.gpgpusim_like()
        base = get_benchmark("bfs").kernels
        for artifact in artifacts:
            repeat = artifact.spec.workload.repeat
            assert _baseline_of(artifact) == (
                _fresh_makespan(gpu, base * repeat).hex()
            )


def _interleaved_specs():
    """Two baseline groups and two specs without a baseline, the groups'
    specs interleaved with each other and with the loners."""
    return [
        _spec("hotspot", "default"),
        _spec("nn", "default"),
        RunSpec(workload=WorkloadSpec(benchmark="nn"), policy="half"),
        _spec("hotspot", "half"),
        _spec("nn", "srrs"),
        RunSpec(workload=WorkloadSpec(benchmark="hotspot"), copies=1),
        _spec("hotspot", "staggered"),
    ]


class TestSpecOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_artifacts_come_back_in_spec_order(self, workers):
        specs = _interleaved_specs()
        engine = Engine()
        artifacts = list(engine.stream(specs, workers=workers))
        assert [a.spec for a in artifacts] == specs
        assert artifacts == [engine.run(spec) for spec in specs]

    def test_a_spec_without_a_baseline_records_none(self):
        artifacts = Engine().run_many(_interleaved_specs())
        assert [a.timing.baseline_makespan is not None
                for a in artifacts] == [True, True, False, True, True,
                                        False, True]


def _sweep_specs():
    """An 8-spec Fig. 4 shape: 2 workloads x 4 policies x one SM count,
    with a baseline per spec (2 distinct baselines)."""
    return [
        RunSpec(workload=WorkloadSpec(benchmark=bench, repeat=2),
                policy=policy, gpu=GPUSpec(num_sms=6), baseline=True,
                tag="group-sweep")
        for bench in ("hotspot", "nn")
        for policy in POLICIES
    ]


def test_a_sweep_is_byte_identical_at_one_and_two_workers():
    specs = _sweep_specs()
    engine = Engine()
    one, two = ([a.to_json() for a in engine.run_many(specs, workers=n)]
                for n in (1, 2))
    assert len(one) == 8
    assert one == two
