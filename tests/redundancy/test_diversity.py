"""Tests for the diversity metrics (paper Section IV-C)."""

from __future__ import annotations

import pickle

import pytest

from repro.api.artifact import DiversitySummary

from repro.errors import RedundancyError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.trace import ExecutionTrace, KernelSpan
from repro.redundancy.diversity import (
    DiversityReport,
    PairDiversity,
    analyze_diversity,
)
from repro.redundancy.manager import RedundantKernelManager


def _trace_with_pair(sm_a, sm_b, a=(0.0, 10.0), b=(20.0, 30.0)):
    trace = ExecutionTrace(num_sms=6)
    trace.add_block(instance_id=0, logical_id=0, copy_id=0, tb_index=0,
                    sm=sm_a, start=a[0], end=a[1])
    trace.add_block(instance_id=1, logical_id=0, copy_id=1, tb_index=0,
                    sm=sm_b, start=b[0], end=b[1])
    trace.add_span(KernelSpan(instance_id=0, logical_id=0, copy_id=0,
                              arrival=0, first_dispatch=a[0],
                              completion=a[1]))
    trace.add_span(KernelSpan(instance_id=1, logical_id=0, copy_id=1,
                              arrival=0, first_dispatch=b[0],
                              completion=b[1]))
    return trace


class TestPairAnalysis:
    def test_disjoint_in_space_and_time_is_diverse(self):
        report = analyze_diversity(_trace_with_pair(0, 1))
        pair = report.pairs[0]
        assert not pair.same_sm
        assert not pair.time_overlap
        assert pair.time_slack == pytest.approx(10.0)
        assert pair.is_diverse()
        assert report.fully_diverse

    def test_same_sm_not_diverse_even_without_overlap(self):
        report = analyze_diversity(_trace_with_pair(2, 2))
        assert report.same_sm_pairs == 1
        assert not report.fully_diverse

    def test_overlap_with_stagger_is_diverse(self):
        # HALF-style: different SMs, overlapping, staggered by 5 of 10
        report = analyze_diversity(
            _trace_with_pair(0, 3, a=(0.0, 10.0), b=(5.0, 15.0)),
            work_per_block=1000.0,
        )
        pair = report.pairs[0]
        assert pair.time_overlap
        assert pair.time_slack == pytest.approx(-5.0)
        # stagger of 5 cycles over 10-cycle duration = 500 work units
        assert pair.phase_separation == pytest.approx(500.0)
        assert pair.is_diverse()
        assert report.fully_diverse

    def test_identical_intervals_phase_aligned(self):
        report = analyze_diversity(
            _trace_with_pair(0, 3, a=(0.0, 10.0), b=(0.0, 10.0))
        )
        pair = report.pairs[0]
        assert pair.phase_separation == pytest.approx(0.0)
        assert not pair.is_diverse()
        assert report.phase_aligned_pairs == 1

    def test_phase_crossing_detected(self):
        # copy B starts later but runs faster: phases cross inside the
        # overlap window -> separation 0 at the crossing
        report = analyze_diversity(
            _trace_with_pair(0, 3, a=(0.0, 20.0), b=(5.0, 15.0))
        )
        assert report.pairs[0].phase_separation == pytest.approx(0.0)

    def test_missing_copy_raises(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_block(instance_id=0, logical_id=0, copy_id=0,
                        tb_index=0, sm=0, start=0, end=1)
        trace.add_span(KernelSpan(instance_id=0, logical_id=0, copy_id=0,
                                  arrival=0,
                                  first_dispatch=0, completion=1))
        with pytest.raises(RedundancyError):
            analyze_diversity(trace)


class TestReportAggregation:
    def test_summary_mentions_counts(self):
        report = analyze_diversity(_trace_with_pair(0, 1))
        text = report.summary()
        assert "pairs=1" in text
        assert "fully_diverse=True" in text

    def test_min_time_slack(self):
        report = analyze_diversity(_trace_with_pair(0, 1))
        assert report.min_time_slack == pytest.approx(10.0)

    def test_empty_report(self):
        report = DiversityReport(pairs=())
        assert report.fully_diverse
        assert report.min_time_slack is None
        assert report.min_phase_separation is None


class TestPolicyGuarantees:
    """End-to-end diversity guarantees per scheduling policy."""

    @pytest.fixture
    def kernel(self):
        return KernelDescriptor(name="k", grid_blocks=12,
                                threads_per_block=128,
                                work_per_block=8000.0)

    def test_srrs_gives_temporal_and_spatial_diversity(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "srrs").run([kernel])
        assert run.diversity.temporally_diverse
        assert run.diversity.spatially_diverse
        assert run.diversity.fully_diverse

    def test_half_gives_spatial_diversity_with_stagger(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "half").run([kernel])
        assert run.diversity.spatially_diverse
        assert not run.diversity.temporally_diverse  # copies co-run
        assert run.diversity.phase_aligned_pairs == 0
        assert run.diversity.fully_diverse

    def test_default_scheduler_lacks_diversity(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "default").run([kernel])
        assert not run.diversity.fully_diverse


class TestLazyPairs:
    """``analyze_diversity`` folds the aggregates from the trace's
    columns and builds ``pairs`` only when it is read."""

    AGGREGATES = ("total_pairs", "same_sm_pairs", "overlapping_pairs",
                  "phase_aligned_pairs", "spatially_diverse",
                  "temporally_diverse", "fully_diverse", "min_time_slack",
                  "min_phase_separation", "phase_tolerance")

    @pytest.fixture(params=("default", "half", "srrs", "staggered"))
    def report(self, request, gpu):
        kernel = KernelDescriptor(name="k", grid_blocks=18,
                                  threads_per_block=128,
                                  work_per_block=6000.0,
                                  bytes_per_block=900.0)
        run = RedundantKernelManager(gpu, request.param).run([kernel] * 2)
        return analyze_diversity(run.sim.trace, phase_tolerance=100.0)

    def _aggregates(self, report):
        return {name: getattr(report, name) for name in self.AGGREGATES}

    def test_aggregates_match_their_definitions_over_the_pairs(self, report):
        folded = self._aggregates(report)
        pairs = report.pairs
        tol = report.phase_tolerance
        assert len(pairs) == report.total_pairs == 36
        assert report.same_sm_pairs == sum(p.same_sm for p in pairs)
        assert report.overlapping_pairs == sum(p.time_overlap for p in pairs)
        assert report.phase_aligned_pairs == sum(
            p.time_overlap and p.phase_separation is not None
            and p.phase_separation <= tol for p in pairs)
        assert report.fully_diverse == all(p.is_diverse(tol) for p in pairs)
        assert report.min_time_slack == min(p.time_slack for p in pairs)
        seps = [p.phase_separation for p in pairs
                if p.time_overlap and p.phase_separation is not None]
        assert report.min_phase_separation == (min(seps) if seps else None)
        rebuilt = DiversityReport(pairs=pairs, phase_tolerance=100.0)
        assert self._aggregates(rebuilt) == folded
        assert rebuilt.pairs == pairs
        assert report.pairs is pairs

    def test_summary_and_pickling_build_no_pairs(self, report, monkeypatch):
        built = []
        init = PairDiversity.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairDiversity, "__init__", counting)
        summary = DiversitySummary.from_report(report)
        copy = pickle.loads(pickle.dumps(report))
        assert built == []
        assert summary.to_dict() == DiversitySummary.from_report(copy).to_dict()
        assert copy.pairs == report.pairs
