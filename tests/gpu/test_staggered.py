"""Tests for the STAGGER ablation policy (temporal diversity only)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.api.spec import FaultPlanSpec
from repro.faults import FaultOutcome
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.scheduler import StaggeredScheduler, make_scheduler
from repro.redundancy.manager import RedundantKernelManager


@pytest.fixture
def kernel():
    return KernelDescriptor(name="k", grid_blocks=12, threads_per_block=256,
                            work_per_block=6000.0)


class TestConstruction:
    def test_registered(self):
        sched = make_scheduler("staggered", min_stagger=1000.0)
        assert isinstance(sched, StaggeredScheduler)
        assert sched.min_stagger == 1000.0

    def test_nonpositive_stagger_rejected(self):
        with pytest.raises(ConfigurationError):
            StaggeredScheduler(min_stagger=0.0)

    def test_describe(self):
        assert "min_stagger=2000" in StaggeredScheduler().describe()


class TestStaggerEnforcement:
    def test_copies_start_at_least_stagger_apart(self, gpu, kernel):
        stagger = 10000.0  # larger than the dispatch latency
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=stagger)
        ).run([kernel])
        spans = {s.copy_id: s for s in run.sim.trace.spans}
        gap = spans[1].first_dispatch - spans[0].first_dispatch
        assert gap >= stagger - 1e-6

    def test_small_stagger_defers_to_dispatch_latency(self, gpu, kernel):
        # enforced stagger below the natural dispatch gap changes nothing
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=100.0)
        ).run([kernel])
        spans = {s.copy_id: s for s in run.sim.trace.spans}
        assert spans[1].first_dispatch >= spans[0].first_dispatch + 100.0

    def test_no_phase_alignment(self, gpu, kernel):
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=4000.0)
        ).run([kernel, kernel])
        assert run.diversity.phase_aligned_pairs == 0

    def test_no_spatial_diversity(self, gpu, kernel):
        # the deliberate hole of this ablation policy
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=4000.0)
        ).run([kernel])
        assert not run.diversity.spatially_diverse


class TestAblationCoverage:
    """Stagger alone defeats transients but not permanent CCFs."""

    PLAN = FaultPlanSpec(transient_ccf=150, permanent_sm=50, seu=50,
                         seed=17)

    def test_transients_fully_detected(self, gpu, kernel, inject):
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=4000.0)
        ).run([kernel, kernel])
        report = inject(run, self.PLAN)
        transients = report.by_kind["TransientCCF"]
        assert transients.get(FaultOutcome.SDC, 0) == 0

    def test_permanent_faults_leak(self, gpu, kernel, inject):
        run = RedundantKernelManager(
            gpu, StaggeredScheduler(min_stagger=4000.0)
        ).run([kernel, kernel])
        report = inject(run, self.PLAN)
        permanent = report.by_kind["PermanentSMFault"]
        assert permanent.get(FaultOutcome.SDC, 0) > 0
        assert report.detection_coverage < 1.0
