"""Tests for ``python -m repro compare``: exit codes and --json schema.

Both sides load through their report's loader, so a real report with
one field edited away from the counts it is derived from (or mistyped)
is misuse: exit 2 with one ``error:`` line naming the side and the
field, never exit 1 ("significant").
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.report import CampaignReport
from repro.stats.compare import COMPARE_SCHEMA
from repro.streams.report import StreamFaults, StreamReport, StreamWindows

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def _campaign(sdc=20, detected=380):
    return CampaignReport(policy="default", by_kind={"TransientCCF": {
        "masked": 1000 - detected - sdc, "detected": detected, "sdc": sdc,
    }}).to_dict()


@pytest.fixture
def artifact(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestExitCodes:
    def test_identical_artifacts_exit_zero(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        assert main(["compare", a, a]) == 0
        assert "no significant difference" in capsys.readouterr().out

    def test_noise_exits_zero(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        b = artifact("b.json", _campaign(sdc=22, detected=378))
        assert main(["compare", a, b]) == 0

    def test_significant_difference_exits_one(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        b = artifact("b.json", _campaign(sdc=80, detected=320))
        assert main(["compare", a, b]) == 1
        assert "SIGNIFICANT" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        assert main(["compare", a, str(a) + ".missing"]) == 2
        assert capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys, artifact):
        a = artifact("a.json", _campaign())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compare", a, str(bad)]) == 2

    @pytest.mark.parametrize("a, b", [("campaign", "stream"),
                                      ("platform", "stream"),
                                      ("stream", "platform")])
    def test_kind_mismatch_exits_two(self, capsys, reports, a, b):
        assert main(["compare", str(reports[a]), str(reports[b])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "same kind" in captured.err

    def test_unrecognised_artifact_exits_two(self, capsys, artifact):
        a = artifact("a.json", {"mystery": 1})
        b = artifact("b.json", _campaign())
        assert main(["compare", a, b]) == 2


class TestJsonPayload:
    def test_schema_tag_and_shape(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        b = artifact("b.json", _campaign(sdc=80, detected=320))
        assert main(["compare", a, b, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == COMPARE_SCHEMA
        assert payload["kind"] == "campaign"
        assert payload["significant"] is True
        assert sorted(payload) == [
            "alpha", "comparisons", "confidence", "deltas", "kind",
            "resamples", "schema", "significant",
        ]

    def test_parameters_flow_through(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        b = artifact("b.json", _campaign(sdc=30, detected=370))
        assert main(["compare", a, b, "--json", "--alpha", "0.2",
                     "--confidence", "0.9", "--resamples", "200",
                     "--seed", "5"]) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.2
        assert payload["confidence"] == 0.9
        assert payload["resamples"] == 200

    def test_json_is_deterministic(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        b = artifact("b.json", _campaign(sdc=26, detected=374))
        main(["compare", a, b, "--json"])
        first = capsys.readouterr().out
        main(["compare", a, b, "--json"])
        assert capsys.readouterr().out == first

    def test_bad_alpha_exits_two(self, capsys, artifact):
        a = artifact("a.json", _campaign())
        assert main(["compare", a, a, "--alpha", "2.0"]) == 2


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real report files: ``campaign report --json`` of the example
    campaign under ``default`` (uniform and stratified) and ``stream run
    --out`` of the example stream."""
    root = tmp_path_factory.mktemp("reports")
    paths = {}
    for name, sampling in (("campaign", None),
                           ("stratified", {"method": "stratified",
                                           "permanent_sm": 2})):
        spec = json.loads((SPECS / "campaign.json").read_text())
        spec["run"]["policy"] = "default"
        spec["sampling"] = sampling
        (root / f"{name}.spec.json").write_text(json.dumps(spec))
        _cli_stdout(["campaign", "run", "--spec", str(root / f"{name}.spec.json"),
                     "--dir", str(root / name)])
        paths[name] = root / f"{name}.json"
        paths[name].write_text(_cli_stdout(
            ["campaign", "report", "--dir", str(root / name), "--json"]))
    paths["stream"] = root / "stream.json"
    _cli_stdout(["stream", "run", "--spec", str(SPECS / "stream.json"),
                 "--frames", "200", "--out", str(paths["stream"])])
    for name, frames in (("platform", "200"), ("platform-b", "300")):
        paths[name] = root / f"{name}.json"
        _cli_stdout(["platform", "run", "--spec",
                     str(SPECS / "platform.json"), "--frames", frames,
                     "--out", str(paths[name])])
    return paths


def _set(payload, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        payload = payload[key]
    payload[leaf] = value


#: row -> (report, {dotted field: edited value}, what the error names)
TAMPERED = {
    # the default policy's 92 SDCs in 1000, edited away
    "campaign-sdc-detected": ("campaign", {"sdc": 0, "detected": 1000},
                              "CampaignReport.detected must be 908"),
    "campaign-sdc": ("campaign", {"sdc": 0}, "CampaignReport.sdc must be 92"),
    "campaign-coverage": ("campaign", {"detection_coverage": 1.0},
                          "CampaignReport.detection_coverage must be 0.908"),
    "campaign-weighted-rates": ("stratified", {"weighted_rates.sdc": 0.0},
                                "CampaignReport.weighted_rates['sdc'] must "
                                "be"),
    "campaign-v1-weighted-rates": ("campaign", {"weighted_rates": None},
                                   "CampaignReport.weighted_rates is not "
                                   "written"),
    "campaign-sampling": ("stratified",
                          {"sampling.nominal": {"ccf": 0, "perm": 0,
                                                "seu": 0}},
                          "CampaignReport.sampling: SamplingMetadata.nominal "
                          "must weigh ccf, perm and seu"),
    "campaign-sdc-samples": ("campaign", {"sdc_samples": "xyz"},
                             "CampaignReport.sdc_samples must be a list"),
    "stream-dropped": ("stream", {"dropped": 50},
                       "StreamReport.drop_rate must be 0.25"),
    # 5 more faults drawn, all silent: the overlay counters still add up
    "stream-faults-sdc": ("stream", {"faults.sdc": 5, "faults.injected": 19},
                          "StreamReport.safe_rate must be 0.975"),
    # 5 silent corruptions no fault was drawn for, safe_rate to match
    "stream-faults-unrelated": ("stream", {"faults.sdc": 5,
                                           "safe_rate": 0.975},
                                "StreamReport.faults.injected must be 19, "
                                "got 14"),
}


class TestTamperedReports:
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("row", sorted(TAMPERED))
    def test_a_tampered_report_is_misuse(self, tmp_path, capsys, reports,
                                         row, side):
        kind, edits, message = TAMPERED[row]
        payload = json.loads(reports[kind].read_text())
        for path, value in edits.items():
            _set(payload, path, value)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        argv = ([str(tampered), str(reports[kind])] if side == "A"
                else [str(reports[kind]), str(tampered)])
        capsys.readouterr()

        assert main(["compare"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: artifact {side}: {message}")

    @pytest.mark.parametrize("kind", ["campaign", "stratified", "stream"])
    def test_a_real_report_against_itself_exits_zero(self, capsys, reports,
                                                     kind):
        assert main(["compare", str(reports[kind]), str(reports[kind])]) == 0
        assert "no significant difference" in capsys.readouterr().out


class TestPlatformReports:
    def test_a_platform_report_against_itself_exits_zero(self, capsys,
                                                         reports):
        path = str(reports["platform"])
        assert main(["compare", path, path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "platform"
        assert payload["significant"] is False
        metrics = [row["metric"] for row in payload["comparisons"]]
        tasks = json.loads(reports["platform"].read_text())["tasks"]
        # the example injects no faults: fault_sdc has no trials anywhere
        assert metrics == sorted(
            ["deadline_miss", "drop", "unsafe"]
            + [f"{task}/{metric}" for task in tasks
               for metric in ("deadline_miss", "drop", "unsafe")])
        assert main(["compare", path, path]) == 0
        assert capsys.readouterr().out.startswith("kind: platform  ")

    def test_two_platform_runs_compare_their_total_and_task_rows(
            self, capsys, reports):
        assert main(["compare", str(reports["platform"]),
                     str(reports["platform-b"]), "--json"]) == 0
        rows = {row["metric"]: row for row in
                json.loads(capsys.readouterr().out)["comparisons"]}
        tasks = len(json.loads(reports["platform"].read_text())["tasks"])
        assert rows["drop"]["a"]["trials"] == 200 * tasks
        assert rows["drop"]["b"]["trials"] == 300 * tasks
        assert rows["camera-perception/drop"]["b"]["trials"] == 300


    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("field, value", [
        ("deadline_misses", 10**6), ("dropped", 7), ("faults_sdc", 3),
        ("faults_detected", -1)])
    def test_a_task_whose_counters_do_not_add_up_is_misuse(
            self, tmp_path, capsys, reports, field, value, side):
        payload = json.loads(reports["platform"].read_text())
        label = sorted(payload["tasks"])[0]
        payload["tasks"][label][field] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        real = str(reports["platform"])
        argv = ([str(tampered), real] if side == "A"
                else [real, str(tampered)])
        capsys.readouterr()

        assert main(["compare"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"error: artifact {side}: PlatformReport.tasks[{label!r}]: "
            f"PlatformTask.{field} must be in [")
        assert captured.err.endswith(f"got {value}\n")

    @pytest.mark.parametrize("kind", ["campaign", "platform", "stream"])
    def test_a_misspelt_key_is_named_by_its_report_s_loader(
            self, capsys, reports, artifact, kind):
        payload = json.loads(reports[kind].read_text())
        payload["drop_rat"] = 0.0
        assert main(["compare", artifact("typo.json", payload),
                     str(reports[kind])]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert re.match(r"error: artifact A: \w+Report: unknown field\(s\) "
                        r"drop_rat; known: ", captured.err)


class TestZeroTrials:
    def test_a_stream_without_completed_frames_compares_without_misses(
            self, capsys, artifact):
        # every frame dropped: the deadline-miss rate has no trials
        idle = StreamReport(
            label="idle", policy="srrs", spec_hash="0" * 16, seed=0,
            frames=50, completed=0, dropped=50, deadline_ms=100.0,
            deadline_misses=0,
            faults=StreamFaults(masked=0, detected=3, sdc=0),
            windows=StreamWindows(*[0.0] * 8),
        ).to_dict()
        path = artifact("idle.json", idle)
        assert main(["compare", path, path, "--json"]) == 0
        metrics = [row["metric"] for row in
                   json.loads(capsys.readouterr().out)["comparisons"]]
        assert metrics == ["drop", "fault_sdc", "unsafe"]


ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = ("BENCH_simulator.json", "BENCH_campaigns.json",
               "BENCH_streams.json", "BENCH_platform.json")


def _bench(scenarios, environment=None):
    payload = {"schema": "bench-test/v2", "generated_by": "tests",
               "scenarios": scenarios}
    if environment is not None:
        payload["environment"] = environment
    return payload


def _bench_writer():
    spec = importlib.util.spec_from_file_location(
        "_bench_artifacts", ROOT / "benchmarks" / "_bench_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchGate:
    """Two BENCH artifacts, the committed baseline first, are CI's
    perf-regression gate: a metric that breaks its rule exits 1."""

    def test_pass_exits_zero(self, capsys, artifact):
        a = artifact("a.json", _bench({"s": {"events_per_sec": 100.0}}))
        assert main(["compare", a, a]) == 0
        out = capsys.readouterr().out
        assert out.endswith("gate: ok\n")
        assert "hint:" not in out

    def test_regression_exits_one_with_the_obs_diff_hint(self, capsys,
                                                         artifact):
        a = artifact("a.json", _bench({"s": {"events_per_sec": 1000.0}}))
        b = artifact("b.json", _bench({"s": {"events_per_sec": 100.0}}))
        assert main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "(-90.0%, throughput) FAIL" in out
        assert "no significant difference" in out
        assert "gate: FAIL, 1 metric(s) broke their rule" in out
        assert "'repro obs diff BASE.jsonl CURRENT.jsonl'" in out
        # every obs action the hint quotes is one the CLI accepts
        actions = re.findall(r"repro obs (\w+)", out)
        assert actions
        for action in actions:
            with pytest.raises(SystemExit) as exit_:
                main(["obs", action, "--help"])
            assert exit_.value.code == 0, action

    def test_a_warning_alone_exits_zero(self, capsys, artifact):
        a = artifact("a.json", _bench({"s": {"wall_s": 1.0}}))
        b = artifact("b.json", _bench({"s": {"wall_s": 3.0}, "t": {}}))
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "(+200.0%, wall) WARN" in out
        assert "WARN scenario 't' is new in B (no baseline)" in out

    def test_non_object_artifact_exits_two(self, tmp_path, capsys,
                                           artifact):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        b = artifact("b.json", _bench({"s": {"digest": "abc"}}))
        assert main(["compare", str(bad), b]) == 2

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("scenarios, message", [
        ({"s": {"digest": "abc"}, "x": 5}, "scenario 'x' must be an object"),
        ([1, 2], "scenarios must be an object"),
    ], ids=["scenario", "scenarios"])
    def test_a_bench_file_of_the_wrong_shape_exits_two(
            self, capsys, artifact, scenarios, message, side):
        good = artifact("good.json", _bench({"s": {"digest": "abc"}}))
        bad = artifact("bad.json", _bench(scenarios))
        argv = [bad, good] if side == "A" else [good, bad]
        assert main(["compare"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: artifact {side}: {message}\n"

    def test_json_payload_carries_the_gate(self, capsys, artifact):
        a = artifact("a.json", _bench({"s": {"digest": "abc"}}))
        b = artifact("b.json", _bench({"s": {"digest": "abd"}}))
        assert main(["compare", a, b, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "alpha", "comparisons", "confidence", "deltas", "failed",
            "kind", "resamples", "schema", "significant", "warnings",
        ]
        assert payload["failed"] is True
        assert payload["warnings"] == []
        assert payload["deltas"] == [{
            "metric": "s/digest", "a": "abc", "b": "abd",
            "relative_change": None, "rule": "exact", "verdict": "fail",
        }]

    @pytest.mark.parametrize("name", BENCH_FILES)
    def test_gates_the_real_artifacts_against_themselves(self, capsys,
                                                         name):
        # the identity CI's stash-then-compare flow relies on
        path = str(ROOT / name)
        assert main(["compare", path, path]) == 0
        assert capsys.readouterr().out.endswith("gate: ok\n")

    def test_a_halved_real_throughput_exits_one(self, capsys, artifact):
        payload = json.loads((ROOT / "BENCH_simulator.json").read_text())
        baseline = artifact("a.json", payload)
        sweep = payload["scenarios"]["fig4_sweep"]
        for key in ("events_per_sec", "blocks_per_sec"):
            sweep[key] /= 2
        assert main(["compare", baseline, artifact("b.json", payload)]) == 1
        assert capsys.readouterr().out.count(
            "(-50.0%, throughput) FAIL") == 2

    def test_a_changed_real_digest_exits_one(self, capsys, artifact):
        payload = json.loads((ROOT / "BENCH_campaigns.json").read_text())
        baseline = artifact("a.json", payload)
        payload["scenarios"]["campaign/resume_bit_identity"]["digest"] = (
            "0" * 16)
        assert main(["compare", baseline, artifact("b.json", payload)]) == 1
        out = capsys.readouterr().out
        assert ("campaign/resume_bit_identity/digest: 65c0572208231282 -> "
                "0000000000000000 (n/a, exact) FAIL") in out


class TestBenchEnvironment:
    def test_the_writer_records_the_core_count(self):
        assert _bench_writer().environment_metadata()["cpu_count"] == \
            os.cpu_count()

    def test_the_gate_warns_across_core_counts(self, capsys, artifact):
        environment = _bench_writer().environment_metadata()
        a = artifact("a.json", _bench({"s": {"digest": "abc"}},
                                      dict(environment, cpu_count=2)))
        b = artifact("b.json", _bench({"s": {"digest": "abc"}},
                                      dict(environment, cpu_count=8)))
        assert main(["compare", a, b]) == 0
        assert "WARN environments differ" in capsys.readouterr().out
        assert main(["compare", a, a]) == 0
        assert "environments differ" not in capsys.readouterr().out
