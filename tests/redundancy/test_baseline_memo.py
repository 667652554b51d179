"""The per-process baseline memo of ``RedundantKernelManager``.

``baseline_makespan`` memoises on its full simulation input, the GPU
configuration and the kernel chain.  These tests pin the contract that
makes the memo invisible in results: a hit is the float a fresh
simulation returns, distinct inputs never share an entry, the table
stays bounded, and a policy sweep is byte-identical at any worker count
whether the memo starts cold or warm.
"""

from __future__ import annotations

import pytest

from repro.api.engine import Engine
from repro.api.spec import GPUSpec, RunSpec, WorkloadSpec
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, dependent_chain
from repro.gpu.scheduler import DefaultScheduler
from repro.gpu.simulator import GPUSimulator
from repro.redundancy import manager as manager_module
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.rodinia import get_benchmark


@pytest.fixture(autouse=True)
def _cold_memo():
    """Every test starts and ends with an empty memo."""
    manager_module._BASELINE_MEMO.clear()
    yield
    manager_module._BASELINE_MEMO.clear()


@pytest.fixture
def simulate_calls(monkeypatch):
    """Count ``GPUSimulator.run`` calls made from now on."""
    calls = []
    original = GPUSimulator.run

    def counting(self, launches):
        calls.append(len(launches))
        return original(self, launches)

    monkeypatch.setattr(GPUSimulator, "run", counting)
    return calls


def _fresh_makespan(gpu: GPUConfig, kernels) -> float:
    """The baseline simulated from scratch, bypassing the manager."""
    return GPUSimulator(gpu, DefaultScheduler()).run(
        dependent_chain(list(kernels))
    ).makespan


class TestMemoHits:
    def test_hit_equals_a_fresh_simulation_to_the_bit(self, simulate_calls):
        gpu = GPUConfig.gpgpusim_like()
        chain = get_benchmark("hotspot").kernels * 2
        mgr = RedundantKernelManager(gpu, "srrs")
        first = mgr.baseline_makespan(chain)
        second = mgr.baseline_makespan(chain, tag="other-label")
        assert len(simulate_calls) == 1  # the second request hit
        fresh = _fresh_makespan(gpu, chain)
        assert first.hex() == second.hex() == fresh.hex()

    def test_hit_is_shared_across_policies(self, simulate_calls):
        gpu = GPUConfig.gpgpusim_like()
        chain = get_benchmark("nn").kernels
        values = {
            policy: RedundantKernelManager(gpu, policy).baseline_makespan(chain)
            for policy in ("default", "half", "srrs", "staggered")
        }
        assert len(simulate_calls) == 1
        assert len(set(values.values())) == 1

    def test_sm_count_never_shares_an_entry(self, simulate_calls):
        chain = get_benchmark("hotspot").kernels
        six = GPUConfig.gpgpusim_like(6)
        thirty = GPUConfig.gpgpusim_like(30)
        got_six = RedundantKernelManager(six).baseline_makespan(chain)
        got_thirty = RedundantKernelManager(thirty).baseline_makespan(chain)
        assert len(simulate_calls) == 2
        assert len(manager_module._BASELINE_MEMO) == 2
        assert got_six.hex() == _fresh_makespan(six, chain).hex()
        assert got_thirty.hex() == _fresh_makespan(thirty, chain).hex()

    def test_repeat_never_shares_an_entry(self, simulate_calls):
        gpu = GPUConfig.gpgpusim_like()
        base = get_benchmark("bfs").kernels
        mgr = RedundantKernelManager(gpu)
        got = {r: mgr.baseline_makespan(base * r) for r in (3, 4, 5)}
        assert len(simulate_calls) == 3
        assert len(manager_module._BASELINE_MEMO) == 3
        for repeat, makespan in got.items():
            assert makespan.hex() == _fresh_makespan(gpu, base * repeat).hex()


class TestBound:
    def test_table_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_BASELINE_MEMO_LIMIT", 4)
        gpu = GPUConfig.gpgpusim_like()
        mgr = RedundantKernelManager(gpu)
        chains = [
            (KernelDescriptor(name=f"memo/k{i}", grid_blocks=4,
                              threads_per_block=64,
                              work_per_block=100.0 + i),)
            for i in range(7)
        ]
        for chain in chains:
            mgr.baseline_makespan(chain)
            assert len(manager_module._BASELINE_MEMO) <= 4
        # the oldest entries went first; the newest four remain
        kept = [key[1] for key in manager_module._BASELINE_MEMO]
        assert kept == chains[3:]
        # an evicted chain is simulated again, to the same value
        assert mgr.baseline_makespan(chains[0]).hex() == (
            _fresh_makespan(gpu, chains[0]).hex()
        )


def _sweep_specs():
    """An 8-spec Fig. 4 shape: 2 workloads x 4 policies x one SM count,
    with a baseline per spec (2 distinct baselines)."""
    return [
        RunSpec(workload=WorkloadSpec(benchmark=bench, repeat=2),
                policy=policy, gpu=GPUSpec(num_sms=6), baseline=True,
                tag="memo-sweep")
        for bench in ("hotspot", "nn")
        for policy in ("default", "half", "srrs", "staggered")
    ]


class TestSweepDeterminism:
    def test_artifacts_identical_at_any_worker_count_cold_or_warm(self):
        specs = _sweep_specs()
        engine = Engine()

        def sweep(workers):
            return [a.to_json() for a in engine.run_many(specs, workers=workers)]

        outputs = {("cold", 1): sweep(1)}
        assert len(manager_module._BASELINE_MEMO) == 2
        outputs[("warm", 1)] = sweep(1)
        # forked pool workers inherit the warm memo of this process
        outputs[("warm", 2)] = sweep(2)
        manager_module._BASELINE_MEMO.clear()
        outputs[("cold", 2)] = sweep(2)
        reference = outputs[("cold", 1)]
        assert len(reference) == 8
        for key, got in outputs.items():
            assert got == reference, key
