"""Tests for repro.stats.compare: significance tests on artifact pairs."""

from __future__ import annotations

import math

import pytest

from repro.errors import StatsError
from repro.faults.report import CampaignReport
from repro.stats.compare import (
    COMPARE_SCHEMA,
    compare_artifacts,
    compare_rates,
    detect_artifact_kind,
    render_comparison,
    two_proportion_test,
)
from repro.streams.report import StreamFaults, StreamReport, StreamWindows


def _campaign(total=1000, detected=380, sdc=20):
    return CampaignReport(policy="default", by_kind={"TransientCCF": {
        "masked": total - detected - sdc, "detected": detected, "sdc": sdc,
    }}).to_dict()


def _stream(frames=2000, completed=1900, dropped=100, misses=40,
            injected=200, sdc=10):
    return StreamReport(
        label="stream", policy="srrs", spec_hash="0" * 16, seed=0,
        frames=frames, completed=completed, dropped=dropped,
        deadline_ms=100.0, deadline_misses=misses,
        faults=StreamFaults(masked=injected - sdc, detected=0, sdc=sdc),
        windows=StreamWindows(*[0.0] * 8),
    ).to_dict()


def _bench(wall=1.25, sdc_events=20, sdc_trials=1000):
    return {
        "schema": "bench-campaigns/v1",
        "scenarios": {
            "hotspot": {
                "wall_seconds": wall,
                "sdc_events": sdc_events,
                "sdc_trials": sdc_trials,
            },
        },
    }


class TestTwoProportion:
    def test_known_value(self):
        # 20/100 vs 40/100: pooled p=0.3, var=0.0042, z=20/sqrt(420)
        z, p = two_proportion_test(20, 100, 40, 100)
        assert z == pytest.approx(0.2 / math.sqrt(0.3 * 0.7 * 0.02),
                                  rel=1e-9)
        assert 0.001 < p < 0.01

    def test_identical_counts_are_null(self):
        z, p = two_proportion_test(30, 200, 30, 200)
        assert z == 0.0
        assert p == pytest.approx(1.0)

    def test_degenerate_pool_returns_null(self):
        assert two_proportion_test(0, 50, 0, 80) == (0.0, 1.0)
        assert two_proportion_test(50, 50, 80, 80) == (0.0, 1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(StatsError):
            two_proportion_test(1, 0, 1, 10)
        with pytest.raises(StatsError):
            two_proportion_test(11, 10, 1, 10)


class TestCompareRates:
    def test_significant_difference_detected(self):
        cmp = compare_rates("sdc", (20, 1000), (80, 1000))
        assert cmp.significant
        assert cmp.p_value < 0.001
        assert cmp.diff == pytest.approx(0.06)
        assert cmp.diff_low <= cmp.diff <= cmp.diff_high
        # the bootstrap error bar excludes zero for a real move
        assert cmp.diff_low > 0.0

    def test_noise_is_not_significant(self):
        cmp = compare_rates("sdc", (20, 1000), (23, 1000))
        assert not cmp.significant
        assert cmp.diff_low <= 0.0 <= cmp.diff_high

    def test_deterministic_for_a_seed(self):
        a = compare_rates("x", (5, 100), (9, 100), seed=3)
        b = compare_rates("x", (5, 100), (9, 100), seed=3)
        assert a.to_dict() == b.to_dict()

    def test_describe_mentions_verdict(self):
        assert "SIGNIFICANT" in compare_rates(
            "sdc", (20, 1000), (80, 1000)).describe()
        assert "noise" in compare_rates(
            "sdc", (20, 1000), (21, 1000)).describe()

    def test_rejects_bad_parameters(self):
        with pytest.raises(StatsError):
            compare_rates("x", (1, 10), (1, 10), alpha=1.0)
        with pytest.raises(StatsError):
            compare_rates("x", (1, 10), (1, 10), confidence=0.0)
        with pytest.raises(StatsError):
            compare_rates("x", (1, 10), (1, 10), resamples=0)


class TestDetectKind:
    def test_detects_all_three_kinds(self):
        assert detect_artifact_kind(_campaign()) == "campaign"
        assert detect_artifact_kind(_stream()) == "stream"
        assert detect_artifact_kind(_bench()) == "bench"

    def test_rejects_unknown_shape(self):
        with pytest.raises(StatsError):
            detect_artifact_kind({"hello": 1})
        with pytest.raises(StatsError):
            detect_artifact_kind([1, 2])


class TestCompareArtifacts:
    def test_campaign_payload_schema(self):
        payload = compare_artifacts(_campaign(), _campaign(sdc=25,
                                                           detected=375))
        assert payload["schema"] == COMPARE_SCHEMA
        assert payload["kind"] == "campaign"
        assert sorted(payload) == [
            "alpha", "comparisons", "confidence", "deltas", "kind",
            "resamples", "schema", "significant",
        ]
        metrics = [row["metric"] for row in payload["comparisons"]]
        assert metrics == ["detected", "masked", "sdc"]  # sorted
        for row in payload["comparisons"]:
            assert sorted(row) == [
                "a", "alpha", "b", "diff", "diff_high", "diff_low",
                "metric", "p_value", "significant", "z",
            ]
            assert sorted(row["a"]) == ["events", "rate", "trials"]

    def test_campaign_significant_and_noise(self):
        noise = compare_artifacts(_campaign(), _campaign(sdc=22,
                                                         detected=378))
        assert not noise["significant"]
        moved = compare_artifacts(_campaign(), _campaign(sdc=80,
                                                         detected=320))
        assert moved["significant"]
        sdc_row = [r for r in moved["comparisons"]
                   if r["metric"] == "sdc"][0]
        assert sdc_row["significant"]

    def test_stream_rows_include_fault_rate_only_when_injected(self):
        payload = compare_artifacts(_stream(), _stream(misses=60))
        metrics = [row["metric"] for row in payload["comparisons"]]
        assert metrics == ["deadline_miss", "drop", "fault_sdc", "unsafe"]
        clean = compare_artifacts(_stream(injected=0, sdc=0),
                                  _stream(injected=0, sdc=0))
        metrics = [row["metric"] for row in clean["comparisons"]]
        assert "fault_sdc" not in metrics

    def test_bench_tests_count_pairs_and_reports_deltas(self):
        payload = compare_artifacts(_bench(), _bench(wall=1.5,
                                                     sdc_events=60))
        metrics = [row["metric"] for row in payload["comparisons"]]
        assert metrics == ["hotspot/sdc"]
        assert payload["significant"]
        delta_metrics = [d["metric"] for d in payload["deltas"]]
        assert "hotspot/wall_seconds" in delta_metrics
        wall = [d for d in payload["deltas"]
                if d["metric"] == "hotspot/wall_seconds"][0]
        assert wall["relative_change"] == pytest.approx(0.2)

    def test_rejects_kind_mismatch(self):
        with pytest.raises(StatsError, match="same kind"):
            compare_artifacts(_campaign(), _stream())

    def test_rejects_disjoint_bench_scenarios(self):
        a = {"scenarios": {"x": {"wall_seconds": 1.0}}}
        b = {"scenarios": {"y": {"wall_seconds": 1.0}}}
        with pytest.raises(StatsError, match="no comparable"):
            compare_artifacts(a, b)

    def test_deterministic_payload(self):
        a = compare_artifacts(_campaign(), _campaign(sdc=30), seed=1)
        b = compare_artifacts(_campaign(), _campaign(sdc=30), seed=1)
        assert a == b


class TestRender:
    def test_render_mentions_rows_and_verdict(self):
        payload = compare_artifacts(_campaign(), _campaign(sdc=80,
                                                           detected=320))
        text = render_comparison(payload)
        assert "sdc" in text
        assert "verdict: significant difference" in text
        quiet = render_comparison(
            compare_artifacts(_campaign(), _campaign()))
        assert "verdict: no significant difference" in quiet

    def test_render_includes_untested_scalars(self):
        payload = compare_artifacts(_bench(), _bench(wall=2.5))
        text = render_comparison(payload)
        assert "untested scalar" in text
        assert "+100.0%" in text
