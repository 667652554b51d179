"""Tests for the SM occupancy calculator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import CapacityError
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.scheduler.default import DefaultScheduler
from repro.gpu.simulator import simulate


def _kd(**overrides) -> KernelDescriptor:
    params = dict(name="k", grid_blocks=8, threads_per_block=128,
                  regs_per_thread=16, shared_mem_per_block=0,
                  work_per_block=10.0)
    params.update(overrides)
    return KernelDescriptor(**params)


SM = SMConfig(max_threads=1024, max_blocks=8, registers=32768,
              shared_memory=32768)


class TestOccupancyLimits:
    def test_thread_limited(self):
        assert blocks_per_sm(_kd(threads_per_block=512, regs_per_thread=1),
                             SM) == 2

    def test_block_slot_limited(self):
        assert blocks_per_sm(_kd(threads_per_block=32, regs_per_thread=1),
                             SM) == 8

    def test_register_limited(self):
        # 64 regs * 128 threads = 8192 per block; 32768/8192 = 4
        assert blocks_per_sm(_kd(regs_per_thread=64), SM) == 4

    def test_shared_memory_limited(self):
        assert blocks_per_sm(_kd(shared_mem_per_block=16384,
                                 regs_per_thread=1), SM) == 2

    def test_no_shared_memory_is_unconstrained(self):
        # 1024 threads / 128 per block = 8 = the block slots
        assert blocks_per_sm(_kd(regs_per_thread=1), SM) == 8


class TestCapacityErrors:
    def test_too_many_threads(self):
        with pytest.raises(CapacityError):
            blocks_per_sm(_kd(threads_per_block=2048), SM)

    def test_too_many_registers(self):
        with pytest.raises(CapacityError):
            blocks_per_sm(_kd(threads_per_block=1024, regs_per_thread=64), SM)

    def test_too_much_shared_memory(self):
        with pytest.raises(CapacityError):
            blocks_per_sm(_kd(shared_mem_per_block=65536), SM)


class TestHelpers:
    @pytest.mark.parametrize("num_sms", [1, 3, 6])
    def test_resident_blocks_scale_with_sms(self, num_sms):
        # a grid larger than the GPU holds: the first wave fills every
        # SM up to its occupancy and not one block further
        kd = _kd(regs_per_thread=64, grid_blocks=40)
        sim = simulate(GPUConfig(num_sms=num_sms, sm=SM), DefaultScheduler(),
                       [KernelLaunch(kernel=kd, instance_id=0, copy_id=0)])
        cols = sim.trace.columns
        first = min(cols.start)
        per_sm = Counter(sm for sm, start in zip(cols.sm, cols.start)
                         if start == first)
        assert per_sm == {sm: blocks_per_sm(kd, SM) for sm in range(num_sms)}

    def test_at_least_one_block_when_it_fits(self):
        kd = _kd(threads_per_block=1024, regs_per_thread=32)
        assert blocks_per_sm(kd, SM) == 1
