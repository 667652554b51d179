"""Differential tests: incremental core vs. retained reference core.

The production :class:`~repro.gpu.simulator.GPUSimulator` replaces
per-event full rescans with virtual-clock heaps, residency counters, a
release-log capacity screen and a reverse-dependency map.  The retained
:class:`~repro.gpu.reference.ReferenceSimulator` evaluates the *same*
virtual-time semantics by scanning everything at every event.  Any
divergence — a single float, record order, event count, or scheduler
interaction — indicates a bug in the incremental bookkeeping, so the
comparison is **bit-exact**, not approximate.

The randomized sweep runs >= 100 workloads across every registered
scheduling policy; the stress tests cover the regimes the optimisation
targets (large grids, wide GPUs, long dependency chains, admission-blocked
launch queues).
"""

from __future__ import annotations

import random

import pytest

from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch, dependent_chain
from repro.gpu.reference import ReferenceSimulator
from repro.gpu.scheduler import DefaultScheduler
from repro.gpu.scheduler.registry import make_scheduler
from repro.gpu.simulator import GPUSimulator

POLICIES = ("default", "half", "srrs", "staggered")
SEEDS = range(30)  # 30 seeds x 4 policies = 120 differential runs

_WORK_CHOICES = (0.0, 0.3, 37.5, 123.0, 400.0, 1500.0, 5000.0)
_BYTE_CHOICES = (0.0, 0.0, 64.0, 333.0, 2048.0, 9000.0)


def random_gpu(rng: random.Random) -> GPUConfig:
    """A small random GPU on which every generated kernel fits."""
    return GPUConfig(
        name="equiv",
        num_sms=rng.randint(2, 8),
        sm=SMConfig(
            max_threads=rng.choice((512, 1024, 1536)),
            max_blocks=rng.randint(2, 8),
            registers=32768,
            shared_memory=32768,
            issue_throughput=rng.choice((0.5, 1.0, 2.0)),
        ),
        dram_bandwidth=rng.choice((16.0, 48.0, 96.0)),
        dispatch_latency=rng.choice((0.0, 100.0, 3000.0)),
        allow_kernel_mixing=rng.random() < 0.7,
    )


def random_workload(rng: random.Random) -> list:
    """Random multi-kernel workload with dependencies and redundant pairs."""
    launches = []
    n = rng.randint(3, 14)
    for i in range(n):
        work = rng.choice(_WORK_CHOICES)
        mem = rng.choice(_BYTE_CHOICES)
        if work == 0.0 and mem == 0.0:
            work = 250.0
        kernel = KernelDescriptor(
            name=f"equiv/k{i}",
            grid_blocks=rng.randint(1, 24),
            threads_per_block=rng.choice((32, 64, 128, 256)),
            regs_per_thread=rng.choice((8, 16, 24)),
            shared_mem_per_block=rng.choice((0, 1024, 8192)),
            work_per_block=work,
            bytes_per_block=mem,
        )
        deps = ()
        if i and rng.random() < 0.45:
            deps = (rng.randrange(i),)
        launches.append(
            KernelLaunch(
                kernel=kernel,
                instance_id=i,
                copy_id=i % 2,
                logical_id=i // 2,  # consecutive launches form copy pairs
                arrival_offset=rng.choice((0.0, 0.0, 500.0, 2500.0)),
                depends_on=deps,
            )
        )
    return launches


def assert_equivalent(gpu, launches, policy: str, seed: int) -> None:
    """Run both cores on one workload and require bit-identical results."""
    fast = GPUSimulator(gpu, make_scheduler(policy)).run(launches)
    ref = ReferenceSimulator(gpu, make_scheduler(policy)).run(launches)
    diffs = fast.trace.differences(ref.trace)
    assert not diffs, (
        f"seed {seed}, policy {policy}: incremental core diverged from "
        f"reference: {diffs}"
    )
    assert fast.events == ref.events, (seed, policy)
    assert fast.makespan == ref.makespan, (seed, policy)
    assert fast.scheduler_name == ref.scheduler_name


class TestRandomizedEquivalence:
    """120 random workloads, every registered policy, bit-exact."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_workload_equivalent(self, policy, seed):
        rng = random.Random(1000 * seed + 17)
        gpu = random_gpu(rng)
        launches = random_workload(rng)
        assert_equivalent(gpu, launches, policy, seed)


class _ViewProbeScheduler(DefaultScheduler):
    """Records every SchedulerView answer it observes at decision points.

    Both cores must feed schedulers identical observations — this catches
    counter bugs (``resident_blocks_of``, the ``resident_counts`` vector
    etc.) even when they would not change the final placement.
    """

    name = "view-probe"

    def __init__(self) -> None:
        super().__init__()
        self.observations = []

    def select_sm(self, launch, candidates, view):
        self.observations.append(
            (
                view.now(),
                tuple(candidates),
                tuple(view.resident_counts()[sm] for sm in candidates),
                tuple(
                    view.resident_blocks_of(sm, launch.instance_id)
                    for sm in candidates
                ),
                view.is_idle(),
                view.incomplete_before(launch),
                tuple(view.resident_counts()),
            )
        )
        return super().select_sm(launch, candidates, view)


class TestSchedulerObservations:
    """The narrow SchedulerView protocol reports identical state."""

    @pytest.mark.parametrize("seed", range(8))
    def test_view_answers_identical(self, seed):
        rng = random.Random(7000 + seed)
        gpu = random_gpu(rng)
        launches = random_workload(rng)
        probe_fast = _ViewProbeScheduler()
        probe_ref = _ViewProbeScheduler()
        GPUSimulator(gpu, probe_fast).run(launches)
        ReferenceSimulator(gpu, probe_ref).run(launches)
        assert probe_fast.observations == probe_ref.observations

    def test_resident_blocks_of_counts_match_per_instance(self, gpu):
        """O(1) per-instance counters agree with a trace-level recount."""
        kd = KernelDescriptor(
            name="probe/k", grid_blocks=18, threads_per_block=128,
            work_per_block=900.0,
        )
        probe = _ViewProbeScheduler()
        sim = GPUSimulator(gpu, probe).run(
            [
                KernelLaunch(kernel=kd, instance_id=0),
                KernelLaunch(kernel=kd, instance_id=1, copy_id=1),
            ]
        )
        # at every decision, per-instance residency is bounded by the
        # SM's total and the count vector covers every SM
        for _, _, totals, mine, _, _, counts in probe.observations:
            for total, of_mine in zip(totals, mine):
                assert 0 <= of_mine <= total
            assert len(counts) == gpu.num_sms
        assert sim.trace.num_blocks == 36

    @pytest.mark.parametrize("core", [GPUSimulator, ReferenceSimulator])
    def test_resident_counts_is_a_live_vector(self, gpu, core):
        """One sequence object per run that tracks placements without
        being fetched again."""
        seen = []

        class Holder(DefaultScheduler):
            def select_sm(self, launch, candidates, view):
                counts = view.resident_counts()
                seen.append((counts, tuple(counts)))
                return super().select_sm(launch, candidates, view)

        kd = KernelDescriptor(
            name="probe/live", grid_blocks=9, threads_per_block=128,
            work_per_block=900.0,
        )
        core(gpu, Holder()).run([KernelLaunch(kernel=kd, instance_id=0)])
        live = seen[0][0]
        assert all(counts is live for counts, _ in seen)
        assert sum(live) == 0  # every block retired since the last look
        # each decision saw one more resident block than the previous one
        assert [sum(snapshot) for _, snapshot in seen] == list(range(9))


class TestStress:
    """Regimes the incremental core exists for."""

    def _wide_gpu(self, num_sms: int = 32) -> GPUConfig:
        return GPUConfig(
            name=f"stress-{num_sms}sm", num_sms=num_sms,
            sm=SMConfig(max_threads=2048, max_blocks=16, registers=65536,
                        shared_memory=65536),
            dram_bandwidth=256.0, dispatch_latency=5.0,
        )

    def test_large_grid_single_kernel(self):
        gpu = self._wide_gpu()
        kernel = KernelDescriptor(
            name="stress/large", grid_blocks=2048, threads_per_block=128,
            work_per_block=700.0, bytes_per_block=500.0,
        )
        launches = [KernelLaunch(kernel=kernel, instance_id=0)]
        assert_equivalent(gpu, launches, "default", seed=-1)
        res = GPUSimulator(gpu, DefaultScheduler()).run(launches)
        assert res.trace.num_blocks == 2048

    def test_many_heterogeneous_launches(self):
        """Heterogeneous per-launch work: no two completions tie, so the
        event count is high and the heaps churn."""
        gpu = self._wide_gpu(16)
        launches = [
            KernelLaunch(
                kernel=KernelDescriptor(
                    name=f"stress/h{i}", grid_blocks=16,
                    threads_per_block=128,
                    work_per_block=300.0 + 17.0 * i,
                    bytes_per_block=100.0 + 7.0 * i,
                ),
                instance_id=i,
            )
            for i in range(48)
        ]
        fast = GPUSimulator(gpu, DefaultScheduler()).run(launches)
        assert fast.trace.num_blocks == 48 * 16
        assert_equivalent(gpu, launches, "default", seed=-2)
        assert_equivalent(gpu, launches, "half", seed=-2)

    def test_long_dependency_chain(self):
        gpu = GPUConfig.gpgpusim_like()
        kernels = [
            KernelDescriptor(
                name=f"stress/c{i}", grid_blocks=12, threads_per_block=128,
                work_per_block=200.0 + 13.0 * (i % 7),
            )
            for i in range(200)
        ]
        chain = dependent_chain(kernels)
        assert_equivalent(gpu, chain, "default", seed=-3)
        res = GPUSimulator(gpu, DefaultScheduler()).run(chain)
        spans = [res.trace.span(l.instance_id) for l in chain]
        for earlier, later in zip(spans, spans[1:]):
            assert later.first_dispatch >= earlier.completion

    def test_admission_blocked_queue_under_strict_fifo(self):
        """Hundreds of launches queue behind a strict-FIFO head."""
        gpu = GPUConfig.gpgpusim_like()
        kd = KernelDescriptor(
            name="stress/fifo", grid_blocks=9, threads_per_block=128,
            work_per_block=450.0,
        )
        launches = [
            KernelLaunch(kernel=kd, instance_id=i, copy_id=i % 2,
                         logical_id=i // 2)
            for i in range(120)
        ]
        assert_equivalent(gpu, launches, "srrs", seed=-4)

    def test_heterogeneous_footprints_many_eligibility_classes(self):
        """Mixed resource footprints stress the cached candidate-SM sets.

        Every (threads, regs, shared-mem) combination is a distinct
        eligibility class, so the incremental core must maintain many
        cached candidate lists and invalidate the right ones as blocks
        retire — a regime the single-class throughput benchmark
        (``large_grid_heterogeneous``) never enters.
        """
        gpu = self._wide_gpu(16)
        launches = [
            KernelLaunch(
                kernel=KernelDescriptor(
                    name=f"stress/mixed{i}",
                    grid_blocks=8 + (i % 5) * 4,
                    threads_per_block=(64, 128, 256)[i % 3],
                    regs_per_thread=(8, 16, 32)[(i // 3) % 3],
                    shared_mem_per_block=(0, 2048, 8192)[(i // 9) % 3],
                    work_per_block=350.0 + 11.0 * i,
                    bytes_per_block=120.0 + 5.0 * i,
                ),
                instance_id=i,
                copy_id=i % 2,
                logical_id=i // 2,
                arrival_offset=(0.0, 0.0, 750.0)[i % 3],
            )
            for i in range(54)
        ]
        assert_equivalent(gpu, launches, "default", seed=-5)
        assert_equivalent(gpu, launches, "staggered", seed=-5)

    def test_same_virtual_time_tie_burst_batches_completions(self):
        """Identical blocks finish at identical virtual times.

        Equal-work blocks placed together complete together, so the
        event loop must drain whole tie groups per advance instead of
        one completion per event: the event count stays far below the
        block count.  The reference core must agree bit-for-bit on the
        resulting trace *and* on the event count.
        """
        gpu = self._wide_gpu(32)
        kernel = KernelDescriptor(
            name="stress/tie", grid_blocks=512, threads_per_block=128,
            work_per_block=640.0, bytes_per_block=256.0,
        )
        launches = [
            KernelLaunch(kernel=kernel, instance_id=i) for i in range(8)
        ]
        assert_equivalent(gpu, launches, "default", seed=-6)
        res = GPUSimulator(gpu, DefaultScheduler()).run(launches)
        blocks = res.trace.num_blocks
        assert blocks == 8 * 512
        # every SM's resident blocks complete as one tie group per wave
        assert res.events < blocks / 8, (res.events, blocks)

    def test_deterministic_across_repeat_runs(self):
        gpu = self._wide_gpu(8)
        rng = random.Random(99)
        launches = random_workload(rng)
        sim = GPUSimulator(gpu, DefaultScheduler())
        a = sim.run(launches)
        b = sim.run(launches)
        assert a.trace.identical_to(b.trace)
        assert a.events == b.events
