"""Micro-benchmarks of the simulation substrate itself.

Not a paper artifact — these track the cost of the discrete-event engine
and the fault campaign so regressions in the reproduction's own
performance are visible (useful when extending the models).

The ``perf/*`` scenario tests additionally emit ``BENCH_simulator.json``
at the repository root (ops/sec, events/sec, and the incremental-core
speedup over the retained reference core) so CI can track the performance
trajectory across PRs.  Every recorded wall is the median of
:data:`LEGS` runs, with the fastest and slowest run beside it
(``*_min_s`` / ``*_max_s``) as the spread.  They run meaningfully under
every pytest-benchmark mode, including ``--benchmark-disable``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar
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
from repro.redundancy.manager import RedundantKernelManager

_ARTIFACT = BenchArtifact(
    "BENCH_simulator.json", "bench-simulator/v2",
    "benchmarks/bench_simulator_performance.py",
)
_record = _ARTIFACT.record

#: Runs per recorded wall: the BENCH value is their median.
LEGS = 5

_R = TypeVar("_R")


def _median_of_legs(run: Callable[[], _R]) -> Tuple[Dict[str, float], _R]:
    """Time :data:`LEGS` calls of ``run``.

    Returns the median wall with the fastest and slowest leg (rounded
    seconds, keys ``median``, ``min``, ``max``) and the last result.
    """
    walls = []
    for _ in range(LEGS):
        t0 = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - t0)
    return ({"median": round(statistics.median(walls), 6),
             "min": round(min(walls), 6), "max": round(max(walls), 6)},
            result)


def _timed_simulation(scenario: str,
                      run: Callable[[], SimulationResult],
                      **extra: object) -> SimulationResult:
    """Execute a simulation :data:`LEGS` times, recording the median wall
    time, its spread and the throughput at the median.

    ``extra`` metrics are merged into the scenario's record (the
    artifact replaces a scenario's metrics wholesale, so everything
    must land in this one call).
    """
    wall, result = _median_of_legs(run)
    blocks = result.trace.num_blocks
    _record(
        scenario,
        wall_s=wall["median"],
        wall_min_s=wall["min"],
        wall_max_s=wall["max"],
        legs=LEGS,
        events=result.events,
        blocks=blocks,
        events_per_sec=round(result.events / wall["median"], 1),
        blocks_per_sec=round(blocks / wall["median"], 1),
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
    """Run the sweep in-process (one worker).

    Returns the wall time plus the simulator's work: ``simulate_calls``
    (redundant runs + baselines actually simulated), their events and
    thread blocks, and ``distinct_baselines``, the single-copy runs among
    them (the batch simulates each distinct baseline once).
    """
    counts = {"simulate_calls": 0, "events": 0, "blocks": 0,
              "distinct_baselines": 0}
    run = GPUSimulator.run

    def counted(self, launches):
        result = run(self, launches)
        counts["simulate_calls"] += 1
        counts["events"] += result.events
        counts["blocks"] += result.trace.num_blocks
        if all(launch.copy_id == 0 for launch in launches):
            counts["distinct_baselines"] += 1
        return result

    with mock.patch.object(GPUSimulator, "run", counted):
        t0 = time.perf_counter()
        Engine().run_many(specs, workers=1)
        wall = time.perf_counter() - t0
    counts["wall_s"] = wall
    return counts


def test_fig4_policy_sweep(benchmark):
    """BENCH scenario ``fig4_sweep``: the paper's Fig. 4 comparison as
    one in-process batch of 88 redundant runs with baselines.

    The cost is per thread block (tens of thousands of placements and
    retirements), and each (benchmark, SMs, repeat) baseline is simulated
    once, however many policies ask for it.  The median of :data:`LEGS`
    walls; the work counts are deterministic.
    """
    specs = fig4_sweep_specs()

    def run():
        legs = sorted((run_fig4_sweep(specs) for _ in range(LEGS)),
                      key=lambda leg: leg["wall_s"])
        median = legs[LEGS // 2]
        assert all(
            {k: v for k, v in leg.items() if k != "wall_s"}
            == {k: v for k, v in median.items() if k != "wall_s"}
            for leg in legs
        )
        wall = median["wall_s"]
        _record(
            "fig4_sweep",
            wall_s=round(wall, 6),
            wall_min_s=round(legs[0]["wall_s"], 6),
            wall_max_s=round(legs[-1]["wall_s"], 6),
            legs=LEGS,
            specs=len(specs),
            simulate_calls=median["simulate_calls"],
            distinct_baselines=median["distinct_baselines"],
            events=median["events"],
            blocks=median["blocks"],
            events_per_sec=round(median["events"] / wall, 1),
            blocks_per_sec=round(median["blocks"] / wall, 1),
        )
        return median

    median = benchmark.pedantic(run, rounds=1, iterations=1)
    # every spec simulates its redundant run; baselines only once each
    assert median["simulate_calls"] == len(specs) + median["distinct_baselines"]
    assert median["distinct_baselines"] < len(specs)


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
        return sim.trace.num_blocks

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
        return sim.trace.num_blocks

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
        # Best-of-2 per leg damps scheduler noise; `repro compare` fails
        # the gate when obs_overhead_frac exceeds 2%.
        null_s = min(leg(Telemetry()), leg(Telemetry()))
        plain_s = min(leg(), leg())
        overhead = max(0.0, round(null_s / plain_s - 1.0, 4))

        return _timed_simulation(
            "large_grid_heterogeneous",
            lambda: GPUSimulator(gpu, DefaultScheduler()).run(launches),
            obs_overhead_frac=overhead,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.trace.num_blocks == 1024 * 16


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
    assert result.trace.num_blocks == 600 * 30


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
        # a median per core: the fast leg only takes tens of ms, so a
        # single noisy-neighbor stall must not decide the ratio
        fast_s, fast = _median_of_legs(
            lambda: GPUSimulator(gpu, DefaultScheduler()).run(launches))
        ref_s, ref = _median_of_legs(
            lambda: ReferenceSimulator(gpu, DefaultScheduler()).run(launches))
        assert fast.trace.identical_to(ref.trace)
        speedup = ref_s["median"] / fast_s["median"]
        _record(
            "incremental_vs_reference",
            fast_s=fast_s["median"],
            fast_min_s=fast_s["min"],
            fast_max_s=fast_s["max"],
            reference_s=ref_s["median"],
            reference_min_s=ref_s["min"],
            reference_max_s=ref_s["max"],
            legs=LEGS,
            speedup=round(speedup, 2),
            events=fast.events,
            blocks=fast.trace.num_blocks,
        )
        return speedup

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
