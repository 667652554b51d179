"""Tests for the default, SRRS and HALF scheduling policies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.scheduler import (
    PAPER_POLICIES,
    DefaultScheduler,
    HALFScheduler,
    SRRSScheduler,
    available_schedulers,
    make_scheduler,
    register_scheduler,
)
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.simulator import simulate


def _kd(**overrides) -> KernelDescriptor:
    params = dict(name="k", grid_blocks=6, threads_per_block=128,
                  work_per_block=1000.0)
    params.update(overrides)
    return KernelDescriptor(**params)


def _pair(kd):
    return [
        KernelLaunch(kernel=kd, instance_id=0, copy_id=0, logical_id=0),
        KernelLaunch(kernel=kd, instance_id=1, copy_id=1, logical_id=0),
    ]


class TestRegistry:
    def test_paper_policies_available(self):
        for name in PAPER_POLICIES:
            assert name in available_schedulers()

    def test_make_scheduler_by_name(self):
        assert isinstance(make_scheduler("default"), DefaultScheduler)
        assert isinstance(make_scheduler("srrs"), SRRSScheduler)
        assert isinstance(make_scheduler("half"), HALFScheduler)

    def test_make_scheduler_forwards_kwargs(self):
        sched = make_scheduler("half", partitions=3)
        assert sched.partitions == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scheduler("default", DefaultScheduler)

    def test_registration_overwrite_allowed(self):
        register_scheduler("default", DefaultScheduler, overwrite=True)
        assert isinstance(make_scheduler("default"), DefaultScheduler)


class TestDefaultScheduler:
    def test_least_loaded_placement(self, gpu):
        kd = _kd(grid_blocks=6)
        sim = simulate(gpu, DefaultScheduler(), [_pair(kd)[0]])
        used = sorted(sim.trace.columns.sm)
        assert used == [0, 1, 2, 3, 4, 5]

    def test_unbound_scheduler_rejects_queries(self):
        sched = DefaultScheduler()
        with pytest.raises(ConfigurationError):
            _ = sched.gpu

    def test_redundant_copies_may_share_sms(self, gpu):
        kd = _kd(grid_blocks=6, work_per_block=20000.0)
        sim = simulate(gpu, DefaultScheduler(), _pair(kd))
        sm = sim.trace.columns.sm
        pairs = list(sim.trace.paired_rows(0))
        assert any(sm[a] == sm[b] for a, b in pairs)


class TestSRRS:
    def test_start_sm_differs_per_copy(self, gpu):
        sched = SRRSScheduler(start_offset=1)
        sched.reset(gpu)
        l0, l1 = _pair(_kd())
        assert sched.start_sm(l0) != sched.start_sm(l1)

    def test_start_offset_multiple_of_sms_rejected_at_reset(self, gpu):
        sched = SRRSScheduler(start_offset=gpu.num_sms)
        with pytest.raises(ConfigurationError):
            sched.reset(gpu)

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            SRRSScheduler(start_offset=0)

    def test_base_sm_out_of_range_rejected(self, gpu):
        sched = SRRSScheduler(base_sm=99)
        with pytest.raises(ConfigurationError):
            sched.reset(gpu)

    def test_serializes_redundant_copies(self, gpu):
        kd = _kd(grid_blocks=6, work_per_block=20000.0)
        sim = simulate(gpu, SRRSScheduler(), _pair(kd))
        span0 = sim.trace.span(0)
        span1 = sim.trace.span(1)
        assert span1.first_dispatch >= span0.completion

    def test_round_robin_rotation_gives_disjoint_sms(self, gpu):
        kd = _kd(grid_blocks=6, work_per_block=20000.0)
        sim = simulate(gpu, SRRSScheduler(start_offset=1), _pair(kd))
        sm = sim.trace.columns.sm
        for a, b in sim.trace.paired_rows(0):
            assert sm[a] != sm[b]
            assert sm[b] == (sm[a] + 1) % gpu.num_sms

    def test_rotation_holds_with_multiwave_grids(self, gpu):
        kd = _kd(grid_blocks=20, work_per_block=500.0)
        sim = simulate(gpu, SRRSScheduler(start_offset=2), _pair(kd))
        sm = sim.trace.columns.sm
        for a, b in sim.trace.paired_rows(0):
            assert sm[b] == (sm[a] + 2) % gpu.num_sms

    def test_blocks_all_later_kernels_until_done(self, gpu):
        # three launches: SRRS runs them strictly one at a time
        kd = _kd(grid_blocks=3, work_per_block=5000.0)
        launches = [
            KernelLaunch(kernel=kd, instance_id=i, copy_id=i % 2, logical_id=i)
            for i in range(3)
        ]
        sim = simulate(gpu, SRRSScheduler(), launches)
        spans = sorted(sim.trace.spans, key=lambda s: s.first_dispatch)
        for earlier, later in zip(spans, spans[1:]):
            assert later.first_dispatch >= earlier.completion

    def test_describe_mentions_offset(self):
        assert "start_offset=3" in SRRSScheduler(start_offset=3).describe()


class TestHALF:
    def test_partitions_cover_all_sms_without_overlap(self, gpu):
        sched = HALFScheduler()
        sched.reset(gpu)
        p0 = set(sched.partition_sms(0))
        p1 = set(sched.partition_sms(1))
        assert p0 | p1 == set(gpu.sm_ids)
        assert not (p0 & p1)

    def test_even_split_for_six_sms(self, gpu):
        sched = HALFScheduler()
        sched.reset(gpu)
        assert sched.partition_sms(0) == (0, 1, 2)
        assert sched.partition_sms(1) == (3, 4, 5)

    def test_odd_sm_count_spreads_remainder(self):
        gpu = GPUConfig(num_sms=7)
        sched = HALFScheduler()
        sched.reset(gpu)
        assert len(sched.partition_sms(0)) == 4
        assert len(sched.partition_sms(1)) == 3

    def test_three_partitions_for_tmr(self, gpu):
        sched = HALFScheduler(partitions=3)
        sched.reset(gpu)
        sms = [set(sched.partition_sms(p)) for p in range(3)]
        assert set().union(*sms) == set(gpu.sm_ids)
        assert sum(len(s) for s in sms) == gpu.num_sms

    def test_too_many_partitions_rejected(self):
        gpu = GPUConfig(num_sms=2)
        sched = HALFScheduler(partitions=3)
        with pytest.raises(ConfigurationError):
            sched.reset(gpu)

    def test_single_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            HALFScheduler(partitions=1)

    def test_copies_confined_to_their_partition(self, gpu):
        kd = _kd(grid_blocks=12, work_per_block=5000.0)
        sim = simulate(gpu, HALFScheduler(), _pair(kd))
        sm = sim.trace.columns.sm
        sms0 = {sm[row] for row in sim.trace.rows_of(0)}
        sms1 = {sm[row] for row in sim.trace.rows_of(1)}
        assert sms0 <= {0, 1, 2}
        assert sms1 <= {3, 4, 5}

    def test_copies_overlap_in_time(self, gpu):
        kd = _kd(grid_blocks=12, work_per_block=20000.0)
        sim = simulate(gpu, HALFScheduler(), _pair(kd))
        assert sim.trace.overlap_cycles(0, 1) > 0

    def test_copy_ids_above_partitions_wrap(self, gpu):
        sched = HALFScheduler()
        sched.reset(gpu)
        launch = KernelLaunch(kernel=_kd(), instance_id=0, copy_id=2)
        assert sched.allowed_sms(launch) == sched.partition_sms(0)

    def test_describe_mentions_partitions(self):
        assert "partitions=2" in HALFScheduler().describe()
