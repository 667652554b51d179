"""Tests for fault application and injection campaigns (experiment E5)."""

from __future__ import annotations

import pytest

from repro.api.spec import FaultPlanSpec
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import apply_fault
from repro.faults.outcomes import FaultOutcome, classify_outcome
from repro.faults.types import PermanentSMFault, SEUFault, TransientCCF
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.redundancy.manager import RedundantKernelManager


@pytest.fixture
def kernel():
    return KernelDescriptor(name="k", grid_blocks=12, threads_per_block=128,
                            work_per_block=6000.0)


@pytest.fixture
def default_run(gpu, kernel):
    return RedundantKernelManager(gpu, "default").run([kernel])


@pytest.fixture
def srrs_run(gpu, kernel):
    return RedundantKernelManager(gpu, "srrs").run([kernel])


@pytest.fixture
def half_run(gpu, kernel):
    return RedundantKernelManager(gpu, "half").run([kernel])


class TestApplyFault:
    def test_masked_fault_touches_nothing(self, srrs_run):
        trace = srrs_run.sim.trace
        fault = TransientCCF(time=trace.makespan + 1000.0, fault_id=0)
        assert apply_fault(fault, trace) == {}

    def test_permanent_fault_corrupts_all_blocks_on_sm(self, srrs_run):
        trace = srrs_run.sim.trace
        fault = PermanentSMFault(sm=0, fault_id=0)
        corruption = apply_fault(fault, trace)
        expected = trace.columns.sm.count(0)
        assert len(corruption) == expected

    def test_seu_restricted_to_single_victim(self, default_run):
        trace = default_run.sim.trace
        # pick a time when several blocks are active on SM 0
        row = trace.columns.sm.index(0)
        t = (trace.columns.start[row] + trace.columns.end[row]) / 2
        corruption = apply_fault(SEUFault(sm=0, time=t, fault_id=0), trace)
        assert len(corruption) <= 1

    def test_unknown_sm_rejected(self, srrs_run):
        trace = srrs_run.sim.trace
        with pytest.raises(FaultInjectionError):
            apply_fault(PermanentSMFault(sm=99, fault_id=0), trace)
        with pytest.raises(FaultInjectionError):
            apply_fault(TransientCCF(time=0.0, fault_id=0, sms=(99,)), trace)


class TestClassifyOutcome:
    def test_empty_corruption_masked(self):
        assert classify_outcome({}, []) is FaultOutcome.MASKED


class TestCampaignGuarantees:
    """The E5 experiment in miniature: SRRS/HALF detect everything."""

    PLAN = FaultPlanSpec(transient_ccf=150, permanent_sm=40, seu=60,
                         seed=42)

    def test_srrs_has_no_sdc(self, srrs_run, inject):
        report = inject(srrs_run, self.PLAN)
        assert report.sdc == 0
        assert report.detection_coverage == 1.0

    def test_half_has_no_sdc(self, half_run, inject):
        report = inject(half_run, self.PLAN)
        assert report.sdc == 0

    def test_default_scheduler_exhibits_sdc(self, default_run, inject):
        # the paper's motivation: unconstrained scheduling leaves CCF holes
        report = inject(default_run, self.PLAN)
        assert report.sdc > 0

    def test_permanent_faults_cause_default_sdc(self, default_run, inject):
        report = inject(default_run, self.PLAN)
        permanent = report.by_kind.get("PermanentSMFault", {})
        assert permanent.get("sdc", 0) > 0

    def test_seus_always_detected_or_masked(self, default_run, inject):
        report = inject(default_run, self.PLAN)
        seu = report.by_kind.get("SEUFault", {})
        assert seu.get("sdc", 0) == 0

    def test_campaign_is_reproducible(self, srrs_run, inject):
        a = inject(srrs_run, self.PLAN)
        b = inject(srrs_run, self.PLAN)
        assert a.to_dict() == b.to_dict()

    def test_counts_sum_to_total(self, default_run, inject):
        report = inject(default_run, self.PLAN)
        assert report.masked + report.detected + report.sdc == report.total
        assert report.total == 250

    def test_summary_format(self, srrs_run, inject):
        text = inject(srrs_run, self.PLAN).summary()
        assert "coverage=1.0000" in text

    def test_hardware_metrics_bridge(self, srrs_run, inject):
        report = inject(srrs_run, self.PLAN)
        metrics = report.hardware_metrics(raw_failure_rate_per_hour=1e-7)
        assert metrics.pmhf_per_hour == 0.0

    def test_explicit_fault_population(self, srrs_run):
        fault = PermanentSMFault(sm=0, fault_id=0)
        result = FaultCampaign(srrs_run).classify(fault)
        assert result.outcome is FaultOutcome.DETECTED

    def test_campaign_rejects_dirty_baseline(self, gpu, kernel):
        run = RedundantKernelManager(gpu, "srrs").run(
            [kernel], corruption={(0, 0): ("x",)}
        )
        with pytest.raises(FaultInjectionError):
            FaultCampaign(run)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultPlanSpec(transient_ccf=0, permanent_sm=0, seu=0)
        with pytest.raises(ConfigurationError, match="negative"):
            FaultPlanSpec(transient_ccf=-1)
        with pytest.raises(ConfigurationError, match="phase quantum"):
            FaultPlanSpec(phase_quantum=0.0)


class TestQueueInducedPhaseAlignment:
    """A heavy kernel followed by a small one makes the default scheduler
    phase-align the small kernel's redundant copies (both copies' blocks
    start the instant the heavy kernel drains) — so chip-wide transient
    CCFs become silent.  SRRS/HALF are immune by construction."""

    def _workload(self, gpu):
        from repro.workloads import make_heavy_kernel

        heavy = make_heavy_kernel(gpu)
        small = KernelDescriptor(name="small", grid_blocks=6,
                                 threads_per_block=128,
                                 work_per_block=8000.0)
        return [heavy, small]

    PLAN = FaultPlanSpec(transient_ccf=400, permanent_sm=50, seu=50,
                         seed=3)

    def test_default_scheduler_aligns_and_leaks_transients(self, gpu,
                                                            inject):
        run = RedundantKernelManager(gpu, "default").run(self._workload(gpu))
        assert run.diversity.phase_aligned_pairs > 0
        report = inject(run, self.PLAN)
        transient = report.by_kind["TransientCCF"]
        assert transient.get("sdc", 0) > 0

    @pytest.mark.parametrize("policy", ["srrs", "half"])
    def test_paper_policies_immune(self, gpu, policy, inject):
        run = RedundantKernelManager(gpu, policy).run(self._workload(gpu))
        assert run.diversity.phase_aligned_pairs == 0
        report = inject(run, self.PLAN)
        assert report.sdc == 0


class TestIndexedSampling:
    """The shardable sampler: fault ``i`` is independent of every other."""

    CONFIG = FaultPlanSpec(transient_ccf=40, permanent_sm=12, seu=8,
                           seed=13)

    def test_kind_layout_matches_counts(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        faults = campaign.sample_range(self.CONFIG, 0,
                                       self.CONFIG.total_injections)
        kinds = [type(f).__name__ for f in faults]
        assert kinds[:40] == ["TransientCCF"] * 40
        assert kinds[40:52] == ["PermanentSMFault"] * 12
        assert kinds[52:] == ["SEUFault"] * 8

    def test_fault_ids_equal_indices(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        faults = campaign.sample_range(self.CONFIG, 0,
                                       self.CONFIG.total_injections)
        assert [f.fault_id for f in faults] == list(range(60))

    def test_any_partition_regenerates_the_population(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        whole = campaign.sample_range(self.CONFIG, 0, 60)
        pieces = (campaign.sample_range(self.CONFIG, 0, 17)
                  + campaign.sample_range(self.CONFIG, 17, 41)
                  + campaign.sample_range(self.CONFIG, 41, 60))
        assert pieces == whole

    def test_fault_at_matches_range(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        assert campaign.fault_at(self.CONFIG, 43) == campaign.sample_range(
            self.CONFIG, 43, 44
        )[0]

    def test_out_of_bounds_rejected(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        with pytest.raises(FaultInjectionError):
            campaign.fault_at(self.CONFIG, 60)
        with pytest.raises(FaultInjectionError):
            campaign.fault_at(self.CONFIG, -1)
        with pytest.raises(FaultInjectionError):
            campaign.sample_range(self.CONFIG, 10, 61)

    def test_draws_stay_in_domain(self, srrs_run):
        campaign = FaultCampaign(srrs_run)
        trace = srrs_run.sim.trace
        for fault in campaign.sample_range(self.CONFIG, 0, 60):
            if hasattr(fault, "time"):
                assert 0.0 <= fault.time <= trace.makespan
            if hasattr(fault, "sm"):
                assert 0 <= fault.sm < trace.num_sms

    def test_policy_property_matches_report(self, srrs_run, inject):
        report = inject(srrs_run, self.CONFIG)
        assert FaultCampaign(srrs_run).policy == report.policy


class TestRandomFaultHook:
    """The stream-overlay hook: caller-seeded draws over the domain."""

    def test_deterministic_for_equal_rngs(self, srrs_run):
        import random

        campaign = FaultCampaign(srrs_run)
        a = campaign.random_fault(random.Random(5), fault_id=7)
        b = campaign.random_fault(random.Random(5), fault_id=7)
        assert a == b

    def test_weights_select_kind(self, srrs_run):
        import random

        campaign = FaultCampaign(srrs_run)
        ccf = campaign.random_fault(random.Random(1), transient_ccf=1,
                                    permanent_sm=0, seu=0)
        perm = campaign.random_fault(random.Random(1), transient_ccf=0,
                                     permanent_sm=1, seu=0)
        seu = campaign.random_fault(random.Random(1), transient_ccf=0,
                                    permanent_sm=0, seu=1)
        assert type(ccf).__name__ == "TransientCCF"
        assert type(perm).__name__ == "PermanentSMFault"
        assert type(seu).__name__ == "SEUFault"

    def test_draws_stay_in_domain_and_classify(self, srrs_run):
        import random

        campaign = FaultCampaign(srrs_run)
        trace = srrs_run.sim.trace
        rng = random.Random(99)
        for fault_id in range(50):
            fault = campaign.random_fault(rng, fault_id=fault_id)
            if hasattr(fault, "time"):
                assert 0.0 <= fault.time <= trace.makespan
            if hasattr(fault, "sm") and fault.sm is not None:
                assert 0 <= fault.sm < trace.num_sms
            result = campaign.classify(fault)
            assert result.outcome is not FaultOutcome.SDC  # SRRS detects


class TestEmptyReportGuards:
    """Empty reports must raise, not divide by zero or claim coverage."""

    def test_hardware_metrics_raises_on_empty(self):
        from repro.faults.campaign import CampaignReport

        report = CampaignReport(policy="srrs")
        with pytest.raises(FaultInjectionError, match="empty campaign"):
            report.hardware_metrics()

    def test_summary_raises_on_empty(self):
        from repro.faults.campaign import CampaignReport

        report = CampaignReport(policy="srrs")
        with pytest.raises(FaultInjectionError, match="empty campaign"):
            report.summary()

    def test_populated_report_still_works(self, srrs_run, inject):
        report = inject(
            srrs_run,
            FaultPlanSpec(transient_ccf=5, permanent_sm=2, seu=2, seed=1),
        )
        assert "coverage" in report.summary()
        assert report.hardware_metrics().spfm == 1.0


class TestMergeCounts:
    """Counts-only aggregation (the sharded-campaign fold primitive)."""

    def test_merge_equals_recording(self, srrs_run, inject):
        from repro.faults.campaign import CampaignReport

        recorded = inject(
            srrs_run,
            FaultPlanSpec(transient_ccf=20, permanent_sm=5, seu=5, seed=2),
        )
        merged = CampaignReport(policy=recorded.policy)
        merged.merge_counts(recorded.by_kind,
                            sdc_samples=recorded.sdc_samples)
        assert merged.to_dict() == recorded.to_dict()
        assert merged.total == recorded.total

    def test_negative_counts_rejected(self):
        from repro.faults.campaign import CampaignReport

        report = CampaignReport(policy="srrs")
        with pytest.raises(FaultInjectionError, match="negative"):
            report.merge_counts({"SEUFault": {"detected": -1}})

    def test_sdc_samples_bounded(self):
        from repro.faults.campaign import SDC_SAMPLE_LIMIT, CampaignReport

        report = CampaignReport(policy="default")
        report.merge_counts(
            {"TransientCCF": {"sdc": 20}},
            sdc_samples=[f"f{i}" for i in range(20)],
        )
        assert report.sdc == 20
        assert report.sdc_samples == [f"f{i}" for i in range(SDC_SAMPLE_LIMIT)]


class TestIncrementalOutcomeCounters:
    """The folded report's tallies agree with a per-fault recount."""

    def test_counters_match_full_recount(self, srrs_run, inject):
        plan = FaultPlanSpec(transient_ccf=40, permanent_sm=10, seu=10,
                             seed=5)
        report = inject(srrs_run, plan)
        campaign = FaultCampaign(srrs_run)
        outcomes = [campaign.classify(fault).outcome
                    for fault in campaign.sample_range(plan, 0, 60)]
        for outcome in FaultOutcome:
            assert report.count(outcome) == outcomes.count(outcome)
        assert report.masked + report.detected + report.sdc == report.total

    def test_record_maintains_by_kind(self, srrs_run, inject):
        report = inject(
            srrs_run,
            FaultPlanSpec(transient_ccf=10, permanent_sm=4, seu=4, seed=11),
        )
        assert sum(
            count
            for outcomes in report.by_kind.values()
            for count in outcomes.values()
        ) == report.total
        assert set(report.by_kind) <= {
            "TransientCCF", "PermanentSMFault", "SEUFault"
        }
