"""Tests for repro.stats.compare: significance tests on artifact pairs."""

from __future__ import annotations

import math

import pytest

from repro.errors import StatsError
from repro.faults.report import CampaignReport
from repro.platform.report import PlatformDevice, PlatformReport, PlatformTask
from repro.stats.compare import (
    COMPARE_SCHEMA,
    _kind_and_rows,
    compare_artifacts,
    compare_rates,
    render_comparison,
    two_proportion_test,
)
from repro.streams.report import (
    STREAM_RATE_METRICS,
    StreamFaults,
    StreamReport,
    StreamWindows,
)


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


def _task(frames=500, misses=5, injected=40, sdc=2):
    return PlatformTask(
        device="gpu0", asil="D", utilisation=0.1, service_ms=1.0,
        protocol_ms=0.5, frames=frames, completed=frames, dropped=0,
        deadline_misses=misses, faults_injected=injected,
        faults_detected=injected - sdc, faults_sdc=sdc,
        throughput_fps=30.0, elapsed_ms=1000.0, digest="0" * 16,
    )


def _platform(**tasks):
    return PlatformReport(
        label="platform", spec_hash="0" * 16, policy="first-fit",
        devices={"gpu0": PlatformDevice(gpu="gpgpusim", preset=None,
                                        capacity=1.0)},
        tasks=tasks or {"camera": _task(), "radar": _task(misses=0)},
    ).to_dict()


def _bench(wall=1.25, sdc_events=20, sdc_trials=1000):
    return {
        "schema": "bench-campaigns/v1",
        "scenarios": {
            "hotspot": {
                "wall_s": wall,
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


class TestKindAndRows:
    @pytest.mark.parametrize("payload, kind", [
        (_campaign(), "campaign"),
        (_stream(), "stream"),
        (_platform(), "platform"),
        (_bench(), "bench"),
    ], ids=["campaign", "stream", "platform", "bench"])
    def test_each_artifact_resolves_to_its_own_kind(self, payload, kind):
        assert _kind_and_rows(payload, "A")[0] == kind

    def test_a_report_s_rows_are_its_own_rate_rows(self):
        assert _kind_and_rows(_campaign(), "A")[1] == (
            CampaignReport.from_dict(_campaign()).rate_rows())
        assert _kind_and_rows(_bench(), "A")[1] == {
            "hotspot/sdc": (20, 1000)}

    @pytest.mark.parametrize("payload", [
        {"hello": 1},
        {},  # every report class declares no key of it
        {"policy": "default"},  # campaign, platform and stream alike
        {"label": "x", "spec_hash": "0", "policy": "p"},  # platform, stream
    ], ids=["unknown-key", "empty", "three-kinds", "two-kinds"])
    def test_refuses_a_payload_no_one_class_declares_most_of(self, payload):
        with pytest.raises(StatsError, match="artifact B: unrecognised"):
            _kind_and_rows(payload, "B")

    @pytest.mark.parametrize("payload, message", [
        (dict(_campaign(), frames=10), "CampaignReport: unknown field"),
        (dict(_stream(), sdc_rate=0.0), "StreamReport: unknown field"),
        (dict(_platform(), total=1), "PlatformReport: unknown field"),
    ], ids=["campaign", "stream", "platform"])
    def test_an_extra_key_is_refused_by_the_nearest_report(self, payload,
                                                           message):
        # the class declaring every other key reads it, and names the key
        with pytest.raises(StatsError, match=f"^artifact B: {message}"):
            _kind_and_rows(payload, "B")

    def test_refuses_a_non_object(self):
        with pytest.raises(StatsError, match="artifact A must be a JSON"):
            _kind_and_rows([1, 2], "A")


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

    def test_a_rate_without_trials_on_a_side_is_not_compared(self):
        payload = compare_artifacts(_stream(), _stream(misses=60))
        metrics = [row["metric"] for row in payload["comparisons"]]
        assert metrics == ["deadline_miss", "drop", "fault_sdc", "unsafe"]
        for a, b in ((_stream(injected=0, sdc=0), _stream(injected=0, sdc=0)),
                     (_stream(), _stream(injected=0, sdc=0))):
            metrics = [row["metric"]
                       for row in compare_artifacts(a, b)["comparisons"]]
            assert metrics == ["deadline_miss", "drop", "unsafe"]

    def test_an_empty_campaign_has_no_comparable_rate(self):
        empty = CampaignReport(policy="default").to_dict()
        with pytest.raises(StatsError, match="share no comparable"):
            compare_artifacts(empty, empty)

    def test_platform_rows_are_the_totals_and_each_task(self):
        payload = compare_artifacts(_platform(), _platform(
            camera=_task(misses=60), radar=_task(misses=0)))
        assert payload["kind"] == "platform"
        rows = {row["metric"]: row for row in payload["comparisons"]}
        assert sorted(rows) == sorted(
            list(STREAM_RATE_METRICS)
            + [f"{task}/{metric}" for task in ("camera", "radar")
               for metric in STREAM_RATE_METRICS])
        # the totals sum the task counters: 5 then 60 misses in 1000
        assert rows["deadline_miss"]["a"]["events"] == 5
        assert rows["deadline_miss"]["b"]["events"] == 60
        assert rows["deadline_miss"]["b"]["trials"] == 1000
        assert rows["fault_sdc"]["a"]["trials"] == 80
        assert rows["camera/deadline_miss"]["significant"]
        assert not rows["radar/deadline_miss"]["significant"]
        assert payload["significant"]

    def test_bench_tests_count_pairs_and_gates_deltas(self):
        payload = compare_artifacts(_bench(), _bench(wall=1.5,
                                                     sdc_events=60))
        metrics = [row["metric"] for row in payload["comparisons"]]
        assert metrics == ["hotspot/sdc"]
        assert payload["significant"]
        assert payload["deltas"] == [{
            "metric": "hotspot/wall_s", "a": 1.25, "b": 1.5,
            "relative_change": pytest.approx(0.2),
            "rule": "wall", "verdict": "ok",
        }]
        assert payload["warnings"] == []
        assert payload["failed"] is False

    def test_rejects_kind_mismatch(self):
        with pytest.raises(StatsError, match="same kind"):
            compare_artifacts(_campaign(), _stream())

    def test_rejects_disjoint_bench_scenarios(self):
        a = {"scenarios": {"x": {"wall_s": 1.0}}}
        b = {"scenarios": {"y": {"wall_s": 1.0}}}
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

    def test_render_shows_each_bench_rule_and_verdict(self):
        text = render_comparison(compare_artifacts(_bench(), _bench(wall=2.5)))
        assert "hotspot/wall_s: 1.25 -> 2.5 (+100.0%, wall) WARN" in text
        assert text.endswith("gate: ok")
        text = render_comparison(compare_artifacts(
            _artifact({"s": {"events_per_sec": 1000.0}}),
            _artifact({"s": {"events_per_sec": 500.0}})))
        assert "s/events_per_sec: 1000.0 -> 500.0 (-50.0%, throughput) " \
               "FAIL" in text
        assert "gate: FAIL, 1 metric(s) broke their rule" in text
        assert "repro obs diff" in text


def _artifact(scenarios, *, environment=...):
    payload = {"schema": "bench-test/v2", "generated_by": "tests",
               "scenarios": scenarios}
    if environment is ...:
        environment = {"python_version": "3.11.7", "platform": "Linux-x"}
    if environment is not None:
        payload["environment"] = environment
    return payload


def _gate(base, cur):
    """``({metric: (rule, verdict)}, warnings)`` of scenario ``s``."""
    payload = compare_artifacts(_artifact({"s": base}), _artifact({"s": cur}))
    assert payload["failed"] == any(
        d["verdict"] == "fail" for d in payload["deltas"])
    return ({d["metric"].split("/", 1)[1]: (d["rule"], d["verdict"])
             for d in payload["deltas"]}, payload["warnings"])


def _rules(*metrics):
    return {m: rule for m, (rule, _) in _gate(
        dict.fromkeys(metrics, 1.0), dict.fromkeys(metrics, 1.0))[0].items()}


class TestBenchRules:
    def test_throughput_metrics(self):
        names = ("events_per_sec", "blocks_per_sec", "frames_per_sec",
                 "injections_per_sec_sharded")
        assert set(_rules(*names).values()) == {"throughput"}

    def test_ratio_metrics(self):
        assert _rules("speedup", "speedup_vs_w1") == {
            "speedup": "ratio", "speedup_vs_w1": "ratio"}

    def test_wall_metrics(self):
        assert _rules("wall_s", "alternate_wall_s", "python_start_s") == {
            "wall_s": "wall", "alternate_wall_s": "wall",
            "python_start_s": "wall"}

    def test_virtual_time_throughput_is_exact(self):
        # frames per second of *simulated* time: a pure function of the
        # spec, held to equality
        assert _rules("throughput_fps") == {"throughput_fps": "exact"}

    def test_everything_else_is_exact(self):
        names = ("digest", "events", "makespan_cycles", "completed",
                 "bit_identical", "verdict", "drop_rate")
        assert set(_rules(*names).values()) == {"exact"}

    def test_cli_start_up_walls_and_module_counts(self):
        assert _rules("cli_report_s", "cli_report_modules") == {
            "cli_report_s": "cli_wall", "cli_report_modules": "exact"}

    def test_overhead_fractions(self):
        # *overhead_frac wins over the *_s wall suffix
        assert set(_rules("obs_overhead_frac",
                          "overhead_frac").values()) == {"overhead"}

    def test_count_pairs_are_tested_not_gated(self):
        base = {"sdc_events": 20, "sdc_trials": 1000}
        payload = compare_artifacts(
            _artifact({"s": base}),
            _artifact({"s": {"sdc_events": 25, "sdc_trials": 1000}}))
        assert [r["metric"] for r in payload["comparisons"]] == ["s/sdc"]
        assert payload["deltas"] == []
        assert not payload["significant"] and not payload["failed"]


    def test_counts_without_a_tested_rate_are_exact(self):
        # no partner, or more events than trials: no proportion row, so
        # the counts must not change at all
        for base, cur in (({"x_events": 5}, {"x_events": 900}),
                          ({"x_events": 5, "x_trials": 4},
                           {"x_events": 9, "x_trials": 4})):
            deltas, _ = _gate(base, cur)
            assert deltas["x_events"] == ("exact", "fail")


class TestBenchVerdicts:
    def test_identical_artifacts_pass(self):
        deltas, warnings = _gate({"events_per_sec": 100.0, "digest": "abc"},
                                 {"events_per_sec": 100.0, "digest": "abc"})
        assert {verdict for _, verdict in deltas.values()} == {"ok"}
        assert warnings == []

    def test_throughput_drop_beyond_20_percent_fails(self):
        deltas, _ = _gate({"events_per_sec": 1000.0},
                          {"events_per_sec": 700.0})
        assert deltas == {"events_per_sec": ("throughput", "fail")}

    def test_throughput_drop_within_20_percent_passes(self):
        deltas, warnings = _gate({"events_per_sec": 1000.0},
                                 {"events_per_sec": 850.0})
        assert deltas == {"events_per_sec": ("throughput", "ok")}
        assert warnings == []

    def test_throughput_improvement_passes(self):
        deltas, _ = _gate({"events_per_sec": 1000.0},
                          {"events_per_sec": 5000.0})
        assert deltas == {"events_per_sec": ("throughput", "ok")}

    def test_ratio_gets_the_wider_35_percent(self):
        # 30% down fails a throughput but not a ratio; 40% down fails
        assert _gate({"speedup": 10.0}, {"speedup": 7.0})[0] == {
            "speedup": ("ratio", "ok")}
        assert _gate({"speedup": 10.0}, {"speedup": 6.0})[0] == {
            "speedup": ("ratio", "fail")}

    def test_cli_walls_fail_above_20_percent(self):
        base = {"cli_report_s": 0.10, "cli_report_modules": 27}
        assert _gate(base, {"cli_report_s": 0.119,
                            "cli_report_modules": 27})[0] == {
            "cli_report_s": ("cli_wall", "ok"),
            "cli_report_modules": ("exact", "ok")}
        assert _gate(base, {"cli_report_s": 0.125,
                            "cli_report_modules": 27})[0] == {
            "cli_report_s": ("cli_wall", "fail"),
            "cli_report_modules": ("exact", "ok")}
        assert _gate(base, {"cli_report_s": 0.10,
                            "cli_report_modules": 28})[0] == {
            "cli_report_s": ("cli_wall", "ok"),
            "cli_report_modules": ("exact", "fail")}

    def test_wall_rise_above_20_percent_only_warns(self):
        assert _gate({"wall_s": 1.0}, {"wall_s": 1.1})[0] == {
            "wall_s": ("wall", "ok")}
        assert _gate({"wall_s": 1.0}, {"wall_s": 3.0})[0] == {
            "wall_s": ("wall", "warn")}

    def test_exact_metrics_fail_on_any_change(self):
        for old, new in (({"digest": "aaaa"}, {"digest": "bbbb"}),
                         ({"events": 3071}, {"events": 3070}),
                         ({"verdict": "pass"}, {"verdict": "fail"}),
                         ({"bit_identical": True}, {"bit_identical": False}),
                         ({"throughput_fps": 4861.1},
                          {"throughput_fps": 4861.2})):
            deltas, _ = _gate(old, new)
            assert set(deltas.values()) == {("exact", "fail")}, old

    def test_one_sided_scenario_warns(self):
        shared = {"digest": "abc"}
        payload = compare_artifacts(
            _artifact({"s": shared, "old": {"events_per_sec": 1.0}}),
            _artifact({"s": shared, "new": {"events_per_sec": 1.0}}))
        assert not payload["failed"]
        assert payload["warnings"] == [
            "scenario 'old' is missing from B",
            "scenario 'new' is new in B (no baseline)",
        ]

    def test_one_sided_metric_warns(self):
        deltas, warnings = _gate(
            {"events_per_sec": 1.0, "old_metric": 1},
            {"events_per_sec": 1.0, "new_metric": 2})
        assert deltas == {"events_per_sec": ("throughput", "ok")}
        assert warnings == ["s/old_metric is missing from B",
                            "s/new_metric is new in B (no baseline)"]

    def test_environment_mismatch_warns(self):
        other = {"python_version": "3.13.0", "platform": "Linux-y"}
        payload = compare_artifacts(
            _artifact({"s": {"digest": "abc"}}),
            _artifact({"s": {"digest": "abc"}}, environment=other))
        assert not payload["failed"]
        assert len(payload["warnings"]) == 1
        assert payload["warnings"][0].startswith("environments differ")

    def test_v1_artifact_without_environment_warns_against_v2(self):
        v1 = _artifact({"s": {"digest": "abc"}}, environment=None)
        v2 = _artifact({"s": {"digest": "abc"}})
        warnings = compare_artifacts(v1, v2)["warnings"]
        assert [w.split(" (")[0] for w in warnings] == ["environments differ"]
        assert compare_artifacts(v1, v1)["warnings"] == []


class TestOverheadBudget:
    def test_within_the_2_percent_budget_passes(self):
        deltas, warnings = _gate({"obs_overhead_frac": 0.0},
                                 {"obs_overhead_frac": 0.015})
        assert deltas == {"obs_overhead_frac": ("overhead", "ok")}
        assert warnings == []

    def test_above_the_budget_fails(self):
        deltas, _ = _gate({"obs_overhead_frac": 0.0},
                          {"obs_overhead_frac": 0.031})
        assert deltas == {"obs_overhead_frac": ("overhead", "fail")}

    def test_baseline_above_budget_never_excuses_current(self):
        # the budget is absolute: a bad baseline is no licence to stay bad
        deltas, _ = _gate({"obs_overhead_frac": 0.5},
                          {"obs_overhead_frac": 0.4})
        assert deltas == {"obs_overhead_frac": ("overhead", "fail")}

    def test_current_above_budget_fails_when_the_baseline_is_within(self):
        deltas, _ = _gate({"obs_overhead_frac": 0.019},
                          {"obs_overhead_frac": 0.021})
        assert deltas == {"obs_overhead_frac": ("overhead", "fail")}

    def test_new_metric_is_gated_without_a_baseline(self):
        # the first recording of the metric must already meet the budget
        payload = compare_artifacts(
            _artifact({"s": {"digest": "abc"}}),
            _artifact({"s": {"digest": "abc", "obs_overhead_frac": 0.25}}))
        assert payload["failed"]
        assert payload["deltas"][0] == {
            "metric": "s/obs_overhead_frac", "a": None, "b": 0.25,
            "relative_change": None, "rule": "overhead", "verdict": "fail"}
        assert payload["warnings"] == []

    def test_new_metric_within_budget_only_warns(self):
        deltas, warnings = _gate(
            {"digest": "abc"}, {"digest": "abc", "obs_overhead_frac": 0.001})
        assert deltas == {"digest": ("exact", "ok")}
        assert warnings == ["s/obs_overhead_frac is new in B (no baseline)"]
