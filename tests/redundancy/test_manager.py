"""Tests for the redundant kernel execution manager."""

from __future__ import annotations

import pytest

from repro.errors import RedundancyError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.redundancy.manager import (
    RedundantKernelManager,
    build_redundant_workload,
)


@pytest.fixture
def kernel():
    return KernelDescriptor(name="k", grid_blocks=6, threads_per_block=128,
                            work_per_block=2000.0)


class TestBuildRedundantWorkload:
    def test_interleaved_ids_and_logicals(self, kernel):
        launches = build_redundant_workload([kernel, kernel], copies=2)
        assert [l.instance_id for l in launches] == [0, 1, 2, 3]
        assert [l.copy_id for l in launches] == [0, 1, 0, 1]
        assert [l.logical_id for l in launches] == [0, 0, 1, 1]

    def test_per_copy_chains(self, kernel):
        launches = build_redundant_workload([kernel, kernel], copies=2)
        by_key = {(l.logical_id, l.copy_id): l for l in launches}
        assert by_key[(1, 0)].depends_on == (by_key[(0, 0)].instance_id,)
        assert by_key[(1, 1)].depends_on == (by_key[(0, 1)].instance_id,)
        assert by_key[(0, 0)].depends_on == ()

    def test_three_copies(self, kernel):
        launches = build_redundant_workload([kernel], copies=3)
        assert [l.copy_id for l in launches] == [0, 1, 2]

    def test_rejects_single_copy(self, kernel):
        with pytest.raises(RedundancyError):
            build_redundant_workload([kernel], copies=1)

    def test_rejects_empty_chain(self):
        with pytest.raises(RedundancyError):
            build_redundant_workload([], copies=2)

    def test_tag_propagates(self, kernel):
        launches = build_redundant_workload([kernel], tag="bench")
        assert all(l.tag == "bench" for l in launches)


class TestManager:
    def test_clean_run_has_agreeing_outputs(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "srrs").run([kernel])
        assert run.all_clean
        assert not run.error_detected
        assert not run.silent_corruption
        assert len(run.comparisons) == 1

    def test_comparison_lookup(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "srrs").run([kernel, kernel])
        assert run.comparison_for(1).logical_id == 1
        with pytest.raises(RedundancyError):
            run.comparison_for(99)

    def test_corruption_of_one_copy_detected(self, gpu, kernel):
        mgr = RedundantKernelManager(gpu, "srrs")
        # instance 0 = logical 0 copy 0
        run = mgr.run([kernel], corruption={(0, 3): ("flip",)})
        assert run.error_detected
        assert run.comparisons[0].mismatching_blocks == (3,)

    def test_identical_corruption_of_both_copies_is_silent(self, gpu, kernel):
        mgr = RedundantKernelManager(gpu, "srrs")
        run = mgr.run([kernel], corruption={(0, 3): ("ccf",), (1, 3): ("ccf",)})
        assert not run.error_detected
        assert run.silent_corruption

    def test_scheduler_instance_accepted(self, gpu, kernel):
        from repro.gpu.scheduler import SRRSScheduler

        mgr = RedundantKernelManager(gpu, SRRSScheduler(start_offset=2))
        run = mgr.run([kernel])
        assert run.diversity.fully_diverse

    def test_copies_below_two_rejected(self, gpu):
        with pytest.raises(RedundancyError):
            RedundantKernelManager(gpu, "srrs", copies=1)

    def test_tmr_run(self, gpu, kernel):
        mgr = RedundantKernelManager(gpu, "half", copies=3)
        run = mgr.run([kernel])
        assert run.copies == 3
        assert run.all_clean
        # three copies present in the trace
        assert set(run.sim.trace.copies_of(0)) == {0, 1, 2}

    def test_makespan_positive(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "default").run([kernel])
        assert run.makespan > 0

    def test_serialization_order_srrs(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "srrs").run([kernel, kernel])
        spans = sorted(run.sim.trace.spans, key=lambda s: s.first_dispatch)
        order = [(s.logical_id, s.copy_id) for s in spans]
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]
