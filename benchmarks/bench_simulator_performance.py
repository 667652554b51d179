"""Micro-benchmarks of the simulation substrate itself.

Not a paper artifact — these track the cost of the discrete-event engine
and the fault campaign so regressions in the reproduction's own
performance are visible (useful when extending the models).

The ``perf/*`` scenario tests additionally emit ``BENCH_simulator.json``
at the repository root (ops/sec, events/sec, and the incremental-core
speedup over the retained reference core) so CI can track the performance
trajectory across PRs.  They run meaningfully under every pytest-benchmark
mode, including ``--benchmark-disable``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List
from unittest import mock

from _bench_artifacts import BenchArtifact

from repro.api.campaign import CampaignSpec
from repro.api.engine import Engine
from repro.api.spec import FaultPlanSpec, GPUSpec, KernelSpec, RunSpec, WorkloadSpec
from repro.campaigns.runner import run_campaign
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch, dependent_chain
from repro.gpu.reference import ReferenceSimulator
from repro.gpu.scheduler import DefaultScheduler
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.obs import Telemetry
from repro.redundancy import manager as manager_module
from repro.redundancy.manager import RedundantKernelManager

_ARTIFACT = BenchArtifact(
    "BENCH_simulator.json", "bench-simulator/v2",
    "benchmarks/bench_simulator_performance.py",
)
_record = _ARTIFACT.record


def _timed_simulation(scenario: str,
                      run: Callable[[], SimulationResult],
                      **extra: object) -> SimulationResult:
    """Execute one simulation, recording wall time and throughput.

    ``extra`` metrics are merged into the scenario's record (the
    artifact replaces a scenario's metrics wholesale, so everything
    must land in this one call).
    """
    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    blocks = len(result.trace.tb_records)
    _record(
        scenario,
        wall_s=round(wall, 6),
        events=result.events,
        blocks=blocks,
        events_per_sec=round(result.events / wall, 1),
        blocks_per_sec=round(blocks / wall, 1),
        makespan_cycles=result.makespan,
        **extra,
    )
    return result


#: The Fig. 4 policy sweep: eleven Rodinia benchmarks x four policies x
#: two SM counts, each normalised to a non-redundant baseline.
FIG4_BENCHMARKS = ("backprop", "bfs", "dwt2d", "gaussian", "hotspot",
                   "hotspot3D", "leukocyte", "lud", "myocyte", "nn", "nw")
FIG4_POLICIES = ("default", "half", "srrs", "staggered")
FIG4_SMS = (6, 30)
FIG4_REPEATS = (3, 4, 5)


def fig4_sweep_specs(seed: int = 2019) -> List[RunSpec]:
    """The 88 specs of the Fig. 4 sweep, in perfbench's ``policy-sweep``
    shape: each spec's kernel ``repeat`` is a seeded shuffle of a balanced
    {3, 4, 5} multiset, and the spec order is shuffled too.  At the
    default seed these are exactly the specs perfbench's sweep runs."""
    rng = random.Random(f"perfbench:policy-sweep:{seed}")
    cells = [(b, p, sms) for b in FIG4_BENCHMARKS for p in FIG4_POLICIES
             for sms in FIG4_SMS]
    repeats = [FIG4_REPEATS[i % len(FIG4_REPEATS)] for i in range(len(cells))]
    rng.shuffle(repeats)
    specs = [
        RunSpec(workload=WorkloadSpec(benchmark=b, repeat=r), policy=p,
                gpu=GPUSpec(num_sms=sms), baseline=True, tag="sweep")
        for (b, p, sms), r in zip(cells, repeats)
    ]
    rng.shuffle(specs)
    return specs


def run_fig4_sweep(specs: List[RunSpec]) -> Dict[str, float]:
    """Run the sweep in-process (one worker) from a cold baseline memo.

    Returns the wall time plus the simulator's work: ``simulate_calls``
    (redundant runs + baselines actually simulated), their events and
    thread blocks, and the distinct baselines the memo ends up holding.
    """
    manager_module._BASELINE_MEMO.clear()
    counts = {"simulate_calls": 0, "events": 0, "blocks": 0}
    run = GPUSimulator.run

    def counted(self, launches):
        result = run(self, launches)
        counts["simulate_calls"] += 1
        counts["events"] += result.events
        counts["blocks"] += len(result.trace.tb_records)
        return result

    with mock.patch.object(GPUSimulator, "run", counted):
        t0 = time.perf_counter()
        Engine().run_many(specs, workers=1)
        wall = time.perf_counter() - t0
    counts["distinct_baselines"] = len(manager_module._BASELINE_MEMO)
    counts["wall_s"] = wall
    return counts


def test_fig4_policy_sweep(benchmark):
    """BENCH scenario ``fig4_sweep``: the paper's Fig. 4 comparison as
    one in-process batch of 88 redundant runs with baselines.

    The cost is per thread block (tens of thousands of placements and
    retirements), and each (benchmark, SMs, repeat) baseline is simulated
    once, however many policies ask for it.  Best-of-3 walls, each from a
    cold baseline memo; the work counts are deterministic.
    """
    specs = fig4_sweep_specs()

    def run():
        legs = [run_fig4_sweep(specs) for _ in range(3)]
        best = min(legs, key=lambda leg: leg["wall_s"])
        assert all(
            {k: v for k, v in leg.items() if k != "wall_s"}
            == {k: v for k, v in best.items() if k != "wall_s"}
            for leg in legs
        )
        _record(
            "fig4_sweep",
            wall_s=round(best["wall_s"], 6),
            specs=len(specs),
            simulate_calls=best["simulate_calls"],
            distinct_baselines=best["distinct_baselines"],
            events=best["events"],
            blocks=best["blocks"],
            events_per_sec=round(best["events"] / best["wall_s"], 1),
            blocks_per_sec=round(best["blocks"] / best["wall_s"], 1),
        )
        return best

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    # every spec simulates its redundant run; baselines only once each
    assert best["simulate_calls"] == len(specs) + best["distinct_baselines"]
    assert best["distinct_baselines"] < len(specs)


def test_simulator_throughput_large_grid(benchmark, gpu):
    """Simulate a 480-block kernel (thousands of events)."""
    kernel = KernelDescriptor(
        name="perf/large", grid_blocks=480, threads_per_block=128,
        work_per_block=700.0, bytes_per_block=900.0,
    )

    def run():
        sim = GPUSimulator(gpu, DefaultScheduler()).run(
            [KernelLaunch(kernel=kernel, instance_id=0)]
        )
        return len(sim.trace.tb_records)

    completed = benchmark(run)
    assert completed == 480  # every block completed exactly once


def test_simulator_completion_churn_behind_pinned_blocks(benchmark):
    """Short blocks completing behind long-lived co-resident blocks.

    Stresses the completion path: resident-block bookkeeping is indexed,
    so finishing a block never rescans the long-lived residents pinned at
    the head of the dispatch order.
    """
    gpu = GPUConfig(
        name="wide-64sm", num_sms=64,
        sm=SMConfig(max_threads=2048, max_blocks=32, registers=65536,
                    shared_memory=65536),
        dispatch_latency=10.0,
    )
    # one long-running kernel pins ~1024 blocks at the head of the
    # resident bookkeeping for the whole run
    pin = KernelDescriptor(name="perf/pin", grid_blocks=1024,
                           threads_per_block=64, work_per_block=5e6)
    churn = KernelDescriptor(name="perf/churn", grid_blocks=800,
                             threads_per_block=64, work_per_block=200.0)
    launches = [KernelLaunch(kernel=pin, instance_id=0)]
    for i in range(1, 16):
        launches.append(
            KernelLaunch(kernel=churn, instance_id=i,
                         depends_on=(i - 1,) if i > 1 else ())
        )

    def run():
        sim = GPUSimulator(gpu, DefaultScheduler()).run(launches)
        return len(sim.trace.tb_records)

    completed = benchmark(run)
    assert completed == 1024 + 15 * 800


def test_simulator_large_grid_heterogeneous(benchmark):
    """BENCH scenario ``large_grid_heterogeneous``: 1024 launches with
    distinct per-block demand on a 64-SM GPU (16384 blocks, ~1024 of them
    co-resident, ~3000 events with barely any completion ties).

    This is the headline scenario of the incremental virtual-time core:
    the pre-rewrite engine rescanned every resident block and launch state
    at each event (~12 s here); the fair-queuing heaps bring it under a
    second (>= 10x).
    """
    gpu = GPUConfig(
        name="wide-64sm", num_sms=64,
        sm=SMConfig(max_threads=2048, max_blocks=16, registers=65536,
                    shared_memory=65536),
        dram_bandwidth=512.0, dispatch_latency=5.0,
    )
    launches = [
        KernelLaunch(
            kernel=KernelDescriptor(
                name=f"perf/het{i}", grid_blocks=16, threads_per_block=128,
                work_per_block=500.0 + 7.0 * i,
                bytes_per_block=300.0 + 3.0 * i,
            ),
            instance_id=i,
        )
        for i in range(1024)
    ]

    def run():
        def leg(telemetry=None):
            t0 = time.perf_counter()
            if telemetry is None:
                GPUSimulator(gpu, DefaultScheduler()).run(launches)
            else:
                with telemetry.span("simulate"):
                    GPUSimulator(gpu, DefaultScheduler()).run(launches)
            return time.perf_counter() - t0

        # obs-overhead guard: the engine wraps simulation in a telemetry
        # span; with telemetry disabled that wrapper must cost nothing.
        # Best-of-2 per leg damps scheduler noise; tools/bench_compare.py
        # fails the gate when obs_overhead_frac exceeds 2%.
        null_s = min(leg(Telemetry()), leg(Telemetry()))
        plain_s = min(leg(), leg())
        overhead = max(0.0, round(null_s / plain_s - 1.0, 4))

        return _timed_simulation(
            "large_grid_heterogeneous",
            lambda: GPUSimulator(gpu, DefaultScheduler()).run(launches),
            obs_overhead_frac=overhead,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.trace.tb_records) == 1024 * 16


def test_simulator_many_launch_chain(benchmark):
    """BENCH scenario ``many_launch_chain``: a 600-kernel dependent chain
    (one CUDA stream), stressing arrival bookkeeping, the reverse-
    dependency map and the first-incomplete pointer."""
    gpu = GPUConfig.gpgpusim_like()
    kernels = [
        KernelDescriptor(
            name=f"perf/c{i}", grid_blocks=30, threads_per_block=128,
            work_per_block=400.0 + 13.0 * (i % 17), bytes_per_block=250.0,
        )
        for i in range(600)
    ]
    chain = dependent_chain(kernels)

    def run():
        return _timed_simulation(
            "many_launch_chain",
            lambda: GPUSimulator(gpu, DefaultScheduler()).run(chain),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.trace.tb_records) == 600 * 30


def test_incremental_core_speedup_vs_reference(benchmark):
    """BENCH scenario ``incremental_vs_reference``: the production core
    against the retained scan-per-event reference core (which preserves
    the pre-rewrite O(events x resident blocks) structure) on a mid-size
    heterogeneous workload — with a bit-identity cross-check.
    """
    gpu = GPUConfig(
        name="wide-32sm", num_sms=32,
        sm=SMConfig(max_threads=2048, max_blocks=16, registers=65536,
                    shared_memory=65536),
        dram_bandwidth=256.0, dispatch_latency=5.0,
    )
    launches = [
        KernelLaunch(
            kernel=KernelDescriptor(
                name=f"perf/ref{i}", grid_blocks=16, threads_per_block=128,
                work_per_block=400.0 + 11.0 * i,
                bytes_per_block=200.0 + 5.0 * i,
            ),
            instance_id=i,
        )
        for i in range(256)
    ]

    def run():
        def best_of(factory, rounds: int = 3):
            best, result = float("inf"), None
            for _ in range(rounds):
                t0 = time.perf_counter()
                result = factory().run(launches)
                best = min(best, time.perf_counter() - t0)
            return best, result

        # best-of-N per core: the fast leg only takes tens of ms, so a
        # single noisy-neighbor stall must not decide the ratio
        fast_s, fast = best_of(lambda: GPUSimulator(gpu, DefaultScheduler()))
        ref_s, ref = best_of(
            lambda: ReferenceSimulator(gpu, DefaultScheduler())
        )
        assert fast.trace.identical_to(ref.trace)
        _record(
            "incremental_vs_reference",
            fast_s=round(fast_s, 6),
            reference_s=round(ref_s, 6),
            speedup=round(ref_s / fast_s, 2),
            events=fast.events,
            blocks=len(fast.trace.tb_records),
        )
        return ref_s / fast_s

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    # conservative floor (the large-grid scenario exceeds 10x; this one
    # is smaller and CI runners are noisy — the committed artifact, not
    # this gate, tracks the real trajectory)
    assert speedup > 2.0


def test_redundant_manager_throughput(benchmark, gpu):
    """Full redundant pipeline on a 10-kernel chain."""
    kernel = KernelDescriptor(
        name="perf/chain", grid_blocks=24, threads_per_block=128,
        work_per_block=1500.0,
    )
    chain = [kernel] * 10

    run = benchmark(lambda: RedundantKernelManager(gpu, "half").run(chain))
    assert run.all_clean


def test_campaign_throughput(benchmark, gpu):
    """1000-injection campaign against one (cached) trace."""
    kernel = KernelSpec(
        name="perf/campaign", grid_blocks=36, threads_per_block=128,
        work_per_block=2500.0,
    )
    spec = CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(kernels=(kernel,) * 3),
                    gpu=GPUSpec.from_config(gpu), policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=600, permanent_sm=200, seu=200,
                             seed=1),
    )

    report = benchmark(lambda: run_campaign(spec))
    assert report.total == 1000
