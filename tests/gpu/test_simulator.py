"""Tests for the discrete-event GPU simulator.

These are the core substrate checks: analytic cross-validation of the
fluid timing model, resource accounting, dependency handling, dispatch
serialization, determinism and failure diagnostics.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch, dependent_chain
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.scheduler.default import DefaultScheduler
from repro.gpu.simulator import GPUSimulator, simulate


def _kd(**overrides) -> KernelDescriptor:
    params = dict(name="k", grid_blocks=6, threads_per_block=128,
                  work_per_block=1000.0)
    params.update(overrides)
    return KernelDescriptor(**params)


def _launch(kd, iid=0, copy=0, deps=(), offset=0.0):
    return KernelLaunch(kernel=kd, instance_id=iid, copy_id=copy,
                        depends_on=deps, arrival_offset=offset)


class TestAnalyticTiming:
    """Cross-checks against hand-computed fluid-model times."""

    def test_one_block_per_sm_runs_at_full_rate(self, gpu):
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd(grid_blocks=6))])
        # 6 blocks on 6 SMs, each alone: exactly work_per_block cycles
        assert sim.makespan == pytest.approx(1000.0)

    def test_single_block(self, gpu):
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd(grid_blocks=1))])
        assert sim.makespan == pytest.approx(1000.0)

    def test_two_blocks_share_one_sm(self):
        gpu = GPUConfig(num_sms=1, sm=SMConfig(max_blocks=4))
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd(grid_blocks=2))])
        # both resident, each at half throughput: 2 * work
        assert sim.makespan == pytest.approx(2000.0)

    def test_waves_serialize_when_occupancy_is_one(self):
        gpu = GPUConfig(num_sms=2, sm=SMConfig(max_blocks=1))
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd(grid_blocks=4))])
        # 2 waves of 2 blocks
        assert sim.makespan == pytest.approx(2000.0)

    def test_aggregate_throughput_invariant(self, gpu):
        # total work / aggregate throughput is a lower bound reached when
        # the grid divides evenly across SMs
        kd = _kd(grid_blocks=24, work_per_block=600.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        assert sim.makespan == pytest.approx(24 * 600.0 / 6)

    def test_memory_only_kernel_drains_at_dram_bandwidth(self, gpu):
        kd = _kd(grid_blocks=6, work_per_block=0.0, bytes_per_block=4800.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        # 6 * 4800 bytes at 48 B/cycle aggregate
        assert sim.makespan == pytest.approx(600.0)

    def test_compute_and_memory_overlap(self, gpu):
        # compute 1000 cycles, memory 6*8000/48 = 1000 cycles: overlapped,
        # the block finishes at max(...) = 1000
        kd = _kd(grid_blocks=6, work_per_block=1000.0, bytes_per_block=8000.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        assert sim.makespan == pytest.approx(1000.0)

    def test_memory_bound_kernel_limited_by_bandwidth(self, gpu):
        kd = _kd(grid_blocks=6, work_per_block=100.0, bytes_per_block=48000.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        assert sim.makespan == pytest.approx(6 * 48000.0 / 48.0)

    def test_issue_throughput_scales_compute(self):
        fast = GPUConfig(num_sms=1, sm=SMConfig(issue_throughput=2.0))
        sim = simulate(fast, DefaultScheduler(), [_launch(_kd(grid_blocks=1))])
        assert sim.makespan == pytest.approx(500.0)


class TestDispatchAndDependencies:
    def test_second_launch_staggered_by_dispatch_latency(self, gpu):
        kd = _kd()
        sim = simulate(gpu, DefaultScheduler(),
                       [_launch(kd, 0), _launch(kd, 1, copy=1)])
        assert sim.trace.span(1).arrival == pytest.approx(gpu.dispatch_latency)

    def test_arrival_offset_adds_delay(self, gpu):
        sim = simulate(gpu, DefaultScheduler(),
                       [_launch(_kd(), 0, offset=500.0)])
        assert sim.trace.span(0).arrival == pytest.approx(500.0)

    def test_dependent_launch_waits_for_completion(self, gpu):
        kd = _kd()
        sim = simulate(gpu, DefaultScheduler(),
                       [_launch(kd, 0), _launch(kd, 1, deps=(0,))])
        span0 = sim.trace.span(0)
        span1 = sim.trace.span(1)
        assert span1.arrival >= span0.completion

    def test_chain_executes_in_order(self, gpu):
        chain = dependent_chain([_kd(), _kd(), _kd()])
        sim = simulate(gpu, DefaultScheduler(), chain)
        spans = [sim.trace.span(l.instance_id) for l in chain]
        for earlier, later in zip(spans, spans[1:]):
            assert later.first_dispatch >= earlier.completion

    def test_unknown_dependency_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            simulate(gpu, DefaultScheduler(), [_launch(_kd(), 0, deps=(42,))])

    def test_forward_dependency_rejected(self, gpu):
        kd = _kd()
        launches = [_launch(kd, 0, deps=(1,)), _launch(kd, 1)]
        with pytest.raises(ConfigurationError):
            simulate(gpu, DefaultScheduler(), launches)

    def test_duplicate_instance_ids_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            simulate(gpu, DefaultScheduler(), [_launch(_kd(), 0), _launch(_kd(), 0)])

    def test_empty_workload_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            simulate(gpu, DefaultScheduler(), [])


class TestResourceAccounting:
    def test_never_exceeds_block_slots(self):
        gpu = GPUConfig(num_sms=2, sm=SMConfig(max_blocks=2))
        kd = _kd(grid_blocks=10, work_per_block=100.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        blocks = list(zip(sim.trace.columns.sm, sim.trace.columns.start,
                          sim.trace.columns.end))
        for sm, start, end in blocks:
            mid = (start + end) / 2
            co_resident = [
                b for b in blocks if b[0] == sm and b[1] <= mid < b[2]
            ]
            assert len(co_resident) <= 2

    def test_never_exceeds_thread_budget(self, gpu):
        kd = _kd(grid_blocks=30, threads_per_block=512, work_per_block=100.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        budget = gpu.sm.max_threads
        blocks = list(zip(sim.trace.columns.sm, sim.trace.columns.start,
                          sim.trace.columns.end))
        for sm, start, end in blocks:
            mid = (start + end) / 2
            threads = sum(
                kd.threads_per_block
                for b in blocks if b[0] == sm and b[1] <= mid < b[2]
            )
            assert threads <= budget

    def test_oversized_block_raises_capacity_error(self, gpu):
        kd = _kd(threads_per_block=4096)
        with pytest.raises(CapacityError):
            simulate(gpu, DefaultScheduler(), [_launch(kd)])

    def test_all_blocks_complete(self, gpu):
        kd = _kd(grid_blocks=50, work_per_block=50.0)
        sim = simulate(gpu, DefaultScheduler(), [_launch(kd)])
        assert len(sim.trace.rows_of(0)) == 50


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, gpu):
        kd = _kd(grid_blocks=20, work_per_block=123.0, bytes_per_block=456.0)
        launches = [_launch(kd, 0), _launch(kd, 1, copy=1)]
        a = simulate(gpu, DefaultScheduler(), launches)
        b = simulate(gpu, DefaultScheduler(), launches)
        assert a.makespan == b.makespan
        for name in ("sm", "start", "end"):
            assert (getattr(a.trace.columns, name)
                    == getattr(b.trace.columns, name))

    def test_simulator_reusable_across_runs(self, gpu):
        sim = GPUSimulator(gpu, DefaultScheduler())
        first = sim.run([_launch(_kd(), 0)])
        second = sim.run([_launch(_kd(), 0)])
        assert first.makespan == second.makespan


class _NeverPlaceScheduler(KernelScheduler):
    """Pathological policy that refuses every placement."""

    name = "never"

    def select_sm(self, launch, candidates, view):
        return None


class _OutOfMaskScheduler(KernelScheduler):
    """Pathological policy that answers outside the candidate set."""

    name = "outlaw"

    def select_sm(self, launch, candidates, view):
        return max(candidates) + 1 if candidates else None


class TestFailureDiagnostics:
    def test_refusing_scheduler_deadlocks_with_diagnosis(self, gpu):
        with pytest.raises(SimulationError, match="deadlock"):
            simulate(gpu, _NeverPlaceScheduler(), [_launch(_kd())])

    def test_out_of_candidates_selection_rejected(self, gpu):
        with pytest.raises(SchedulingError):
            simulate(gpu, _OutOfMaskScheduler(), [_launch(_kd())])

    def test_result_metadata(self, gpu):
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd())])
        assert sim.scheduler_name == "default"
        assert sim.gpu is gpu
        assert sim.events > 0

    def test_total_kernel_cycles(self, gpu):
        sim = simulate(gpu, DefaultScheduler(), [_launch(_kd())])
        assert sim.trace.span(0).exec_time == pytest.approx(1000.0)
        assert sim.total_kernel_cycles() == pytest.approx(1000.0)
