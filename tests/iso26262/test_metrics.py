"""Tests for ISO 26262-5 hardware architectural metrics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SafetyViolation
from repro.iso26262.asil import Asil
from repro.iso26262.metrics import (
    TARGETS,
    FailureRateBudget,
    HardwareMetrics,
    coverage_from_campaign,
)


class TestTargets:
    def test_asil_d_strictest(self):
        assert TARGETS[Asil.D].spfm == 0.99
        assert TARGETS[Asil.D].lfm == 0.90
        assert TARGETS[Asil.D].pmhf_per_hour == 1e-8

    def test_qm_and_a_have_no_targets(self):
        for level in (Asil.QM, Asil.A):
            targets = TARGETS[level]
            assert targets.spfm is None
            assert targets.lfm is None

    def test_targets_monotonic(self):
        assert TARGETS[Asil.B].spfm < TARGETS[Asil.C].spfm < TARGETS[Asil.D].spfm
        assert TARGETS[Asil.B].lfm < TARGETS[Asil.C].lfm < TARGETS[Asil.D].lfm


class TestBudget:
    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureRateBudget(total=-1, single_point=0, residual=0,
                              latent_multi_point=0)

    def test_categories_must_fit_total(self):
        with pytest.raises(ConfigurationError):
            FailureRateBudget(total=1e-7, single_point=1e-7, residual=1e-7,
                              latent_multi_point=0)


class TestMetricsFromBudget:
    def test_perfect_element(self):
        metrics = HardwareMetrics.from_budget(
            FailureRateBudget(total=1e-6, single_point=0, residual=0,
                              latent_multi_point=0)
        )
        assert metrics.spfm == 1.0
        assert metrics.lfm == 1.0
        assert metrics.pmhf_per_hour == 0.0
        metrics.check(Asil.D)

    def test_zero_rate_element_is_perfect(self):
        metrics = HardwareMetrics.from_budget(
            FailureRateBudget(total=0, single_point=0, residual=0,
                              latent_multi_point=0)
        )
        metrics.check(Asil.D)

    def test_spfm_formula(self):
        metrics = HardwareMetrics.from_budget(
            FailureRateBudget(total=1e-6, single_point=5e-9, residual=5e-9,
                              latent_multi_point=0)
        )
        assert metrics.spfm == pytest.approx(0.99)

    def test_lfm_formula(self):
        metrics = HardwareMetrics.from_budget(
            FailureRateBudget(total=1e-6, single_point=0, residual=0,
                              latent_multi_point=2e-7)
        )
        assert metrics.lfm == pytest.approx(0.8)

    def test_check_raises_with_details(self):
        metrics = HardwareMetrics.from_budget(
            FailureRateBudget(total=1e-6, single_point=1e-7, residual=0,
                              latent_multi_point=0)
        )
        with pytest.raises(SafetyViolation, match="SPFM"):
            metrics.check(Asil.D)

    def test_pmhf_violation_detected(self):
        metrics = HardwareMetrics(spfm=1.0, lfm=1.0, pmhf_per_hour=1e-6)
        with pytest.raises(SafetyViolation, match="PMHF"):
            metrics.check(Asil.D)

    def test_qm_always_met(self):
        metrics = HardwareMetrics(spfm=0.0, lfm=0.0, pmhf_per_hour=1.0)
        metrics.check(Asil.QM)


class TestCampaignCoverage:
    def test_full_detection_gives_full_coverage(self):
        metrics = coverage_from_campaign(
            total_injections=100, detected=80, masked=20, undetected=0,
            raw_failure_rate_per_hour=1e-6,
        )
        assert metrics.lfm == 1.0
        assert metrics.pmhf_per_hour == 0.0

    def test_undetected_faults_hurt_coverage(self):
        metrics = coverage_from_campaign(
            total_injections=100, detected=90, masked=0, undetected=10,
            raw_failure_rate_per_hour=1e-6,
        )
        assert metrics.lfm == pytest.approx(0.9)
        assert metrics.pmhf_per_hour == pytest.approx(1e-7)

    def test_counts_must_sum(self):
        with pytest.raises(ConfigurationError):
            coverage_from_campaign(100, 50, 20, 10, 1e-6)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_from_campaign(0, 0, 0, 0, 1e-6)

    def test_all_masked_is_perfect(self):
        metrics = coverage_from_campaign(10, 0, 10, 0, 1e-6)
        assert metrics.lfm == 1.0
