"""Tests of the CI perf-regression gate (``tools/bench_compare.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _artifact(scenarios, *, schema="bench-test/v2", environment=...):
    payload = {
        "schema": schema,
        "generated_by": "tests",
        "scenarios": scenarios,
    }
    if environment is ...:
        environment = {"python_version": "3.11.7", "platform": "Linux-x"}
    if environment is not None:
        payload["environment"] = environment
    return payload


def _write(tmp_path: Path, name: str, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestClassifyMetric:
    def test_throughput_metrics(self):
        for name in ("events_per_sec", "blocks_per_sec", "frames_per_sec",
                     "injections_per_sec_sharded"):
            assert bench_compare.classify_metric(name) == "throughput"

    def test_ratio_metrics(self):
        assert bench_compare.classify_metric("speedup") == "ratio"
        assert bench_compare.classify_metric("speedup_vs_w1") == "ratio"

    def test_wall_metrics(self):
        assert bench_compare.classify_metric("wall_s") == "wall"
        assert bench_compare.classify_metric("alternate_wall_s") == "wall"

    def test_virtual_time_throughput_is_deterministic(self):
        # throughput_fps is frames per second of *simulated* time — a
        # pure function of the spec, held to exact equality
        assert bench_compare.classify_metric("throughput_fps") == "exact"

    def test_everything_else_is_deterministic(self):
        for name in ("digest", "events", "makespan_cycles", "completed",
                     "bit_identical", "verdict", "drop_rate"):
            assert bench_compare.classify_metric(name) == "exact"

    def test_rate_count_pairs_defer_to_significance_testing(self):
        # <m>_events / <m>_trials pairs are judged by `repro compare`
        assert bench_compare.classify_metric("sdc_events") == "counts"
        assert bench_compare.classify_metric("sdc_trials") == "counts"
        assert bench_compare.classify_metric(
            "uniform_sdc_events") == "counts"

    def test_cli_start_up_walls_and_module_counts(self):
        assert bench_compare.classify_metric("cli_report_s") == "cli_wall"
        assert bench_compare.classify_metric("python_start_s") == "wall"
        assert bench_compare.classify_metric(
            "cli_report_modules") == "exact"

    def test_overhead_fractions(self):
        # *overhead_frac wins over the *_s wall suffix check
        assert bench_compare.classify_metric(
            "obs_overhead_frac") == "overhead"
        assert bench_compare.classify_metric("overhead_frac") == "overhead"


class TestCompareArtifacts:
    def test_cli_walls_gate_on_the_throughput_tolerance(self):
        base = _artifact({"c": {"cli_report_s": 0.10,
                                "cli_report_modules": 27}})
        within = _artifact({"c": {"cli_report_s": 0.119,
                                  "cli_report_modules": 27}})
        slower = _artifact({"c": {"cli_report_s": 0.125,
                                  "cli_report_modules": 27}})
        heavier = _artifact({"c": {"cli_report_s": 0.10,
                                   "cli_report_modules": 28}})
        assert bench_compare.compare_artifacts(base, within)[0] == []
        failures, _ = bench_compare.compare_artifacts(base, slower)
        assert len(failures) == 1 and "cli_report_s" in failures[0]
        failures, _ = bench_compare.compare_artifacts(base, heavier)
        assert len(failures) == 1 and "cli_report_modules" in failures[0]

    def test_identical_artifacts_pass(self):
        art = _artifact({"s": {"events_per_sec": 100.0, "digest": "abc"}})
        failures, warnings = bench_compare.compare_artifacts(art, art)
        assert failures == []
        assert warnings == []

    def test_throughput_regression_beyond_tolerance_fails(self):
        base = _artifact({"s": {"events_per_sec": 1000.0}})
        cur = _artifact({"s": {"events_per_sec": 700.0}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1
        assert "events_per_sec" in failures[0]

    def test_throughput_drop_within_tolerance_passes(self):
        base = _artifact({"s": {"events_per_sec": 1000.0}})
        cur = _artifact({"s": {"events_per_sec": 850.0}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == [] and warnings == []

    def test_throughput_improvement_passes(self):
        base = _artifact({"s": {"events_per_sec": 1000.0}})
        cur = _artifact({"s": {"events_per_sec": 5000.0}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert failures == []

    def test_ratio_gets_wider_tolerance(self):
        base = _artifact({"s": {"speedup": 10.0}})
        # 30% down: beyond the 20% throughput tolerance but inside the
        # 35% ratio tolerance
        cur = _artifact({"s": {"speedup": 7.0}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        cur = _artifact({"s": {"speedup": 6.0}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1

    def test_count_drift_warns_instead_of_failing(self):
        base = _artifact({"s": {"sdc_events": 20, "sdc_trials": 1000}})
        cur = _artifact({"s": {"sdc_events": 25, "sdc_trials": 1000}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert len(warnings) == 1
        assert "repro compare" in warnings[0]

    def test_digest_drift_fails(self):
        base = _artifact({"s": {"digest": "aaaa"}})
        cur = _artifact({"s": {"digest": "bbbb"}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1
        assert "deterministic" in failures[0]

    def test_deterministic_count_drift_fails(self):
        base = _artifact({"s": {"events": 3071}})
        cur = _artifact({"s": {"events": 3070}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1

    def test_wall_increase_only_warns(self):
        base = _artifact({"s": {"wall_s": 1.0}})
        cur = _artifact({"s": {"wall_s": 3.0}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert len(warnings) == 1

    def test_one_sided_scenario_warns(self):
        base = _artifact({"old": {"events_per_sec": 1.0}})
        cur = _artifact({"new": {"events_per_sec": 1.0}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert len(warnings) == 2

    def test_one_sided_metric_warns(self):
        base = _artifact({"s": {"events_per_sec": 1.0, "old_metric": 1}})
        cur = _artifact({"s": {"events_per_sec": 1.0, "new_metric": 2}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert len(warnings) == 2

    def test_v1_baseline_tolerated_with_warning(self):
        base = _artifact({"s": {"digest": "abc"}}, schema="bench-test/v1",
                         environment=None)
        cur = _artifact({"s": {"digest": "abc"}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert any("schema v1" in w for w in warnings)

    def test_environment_mismatch_warns(self):
        base = _artifact({"s": {"digest": "abc"}})
        cur = _artifact({"s": {"digest": "abc"}},
                        environment={"python_version": "3.13.0",
                                     "platform": "Linux-y"})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert any("environments differ" in w for w in warnings)

    def test_custom_tolerance(self):
        base = _artifact({"s": {"events_per_sec": 1000.0}})
        cur = _artifact({"s": {"events_per_sec": 700.0}})
        failures, _ = bench_compare.compare_artifacts(base, cur,
                                                      tolerance=0.5)
        assert failures == []


class TestOverheadGate:
    def test_overhead_within_budget_passes(self):
        base = _artifact({"s": {"obs_overhead_frac": 0.0}})
        cur = _artifact({"s": {"obs_overhead_frac": 0.015}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == [] and warnings == []

    def test_overhead_above_budget_fails(self):
        base = _artifact({"s": {"obs_overhead_frac": 0.0}})
        cur = _artifact({"s": {"obs_overhead_frac": 0.031}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1
        assert "3.10%" in failures[0]
        assert "2% budget" in failures[0]

    def test_baseline_above_budget_never_excuses_current(self):
        # the budget is absolute: a historically bad baseline is not a
        # licence for the current value to stay bad
        base = _artifact({"s": {"obs_overhead_frac": 0.5}})
        cur = _artifact({"s": {"obs_overhead_frac": 0.4}})
        failures, _ = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1

    def test_new_overhead_metric_is_gated_without_a_baseline(self):
        # first PR introducing the metric must already meet the budget
        base = _artifact({"s": {"digest": "abc"}})
        cur = _artifact({"s": {"digest": "abc",
                               "obs_overhead_frac": 0.25}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert len(failures) == 1
        assert "exceeds" in failures[0]
        assert not any("new metric" in w for w in warnings)

    def test_new_overhead_metric_within_budget_only_warns(self):
        base = _artifact({"s": {"digest": "abc"}})
        cur = _artifact({"s": {"digest": "abc",
                               "obs_overhead_frac": 0.001}})
        failures, warnings = bench_compare.compare_artifacts(base, cur)
        assert failures == []
        assert any("new metric" in w for w in warnings)

    def test_custom_overhead_limit(self):
        base = _artifact({"s": {"obs_overhead_frac": 0.0}})
        cur = _artifact({"s": {"obs_overhead_frac": 0.05}})
        failures, _ = bench_compare.compare_artifacts(
            base, cur, overhead_limit=0.10)
        assert failures == []

    def test_overhead_limit_flag(self, tmp_path):
        base = _write(tmp_path, "base.json",
                      _artifact({"s": {"obs_overhead_frac": 0.0}}))
        cur = _write(tmp_path, "cur.json",
                     _artifact({"s": {"obs_overhead_frac": 0.05}}))
        assert bench_compare.main([str(base), str(cur)]) == 1
        assert bench_compare.main(
            [str(base), str(cur), "--overhead-limit", "0.10"]
        ) == 0


class TestMain:
    def test_pass_exit_code(self, tmp_path, capsys):
        art = _artifact({"s": {"events_per_sec": 100.0}})
        base = _write(tmp_path, "base.json", art)
        cur = _write(tmp_path, "cur.json", art)
        assert bench_compare.main([str(base), str(cur)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_code(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json",
                      _artifact({"s": {"events_per_sec": 1000.0}}))
        cur = _write(tmp_path, "cur.json",
                     _artifact({"s": {"events_per_sec": 100.0}}))
        assert bench_compare.main([str(base), str(cur)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_exit_code(self, tmp_path, capsys):
        cur = _write(tmp_path, "cur.json", _artifact({}))
        assert bench_compare.main(
            [str(tmp_path / "absent.json"), str(cur)]
        ) == 2

    def test_malformed_artifact_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        cur = _write(tmp_path, "cur.json", _artifact({}))
        assert bench_compare.main([str(bad), str(cur)]) == 2

    def test_tolerance_flag(self, tmp_path):
        base = _write(tmp_path, "base.json",
                      _artifact({"s": {"events_per_sec": 1000.0}}))
        cur = _write(tmp_path, "cur.json",
                     _artifact({"s": {"events_per_sec": 700.0}}))
        assert bench_compare.main(
            [str(base), str(cur), "--tolerance", "0.5"]
        ) == 0

    def test_gates_the_real_artifacts_against_themselves(self):
        # the committed artifacts must always pass against themselves —
        # the identity property CI's stash-then-compare flow relies on
        root = Path(__file__).resolve().parents[2]
        for name in ("BENCH_simulator.json", "BENCH_campaigns.json",
                     "BENCH_streams.json", "BENCH_platform.json"):
            path = root / name
            if not path.exists():
                pytest.skip(f"{name} not present")
            payload = json.loads(path.read_text())
            failures, _ = bench_compare.compare_artifacts(payload, payload)
            assert failures == []
