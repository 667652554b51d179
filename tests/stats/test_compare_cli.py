"""Tests for ``python -m repro compare``: exit codes and --json schema.

Both sides load through their report's loader, so a real report with
one field edited away from the counts it is derived from (or mistyped)
is misuse: exit 2 with one ``error:`` line naming the side and the
field, never exit 1 ("significant").
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.report import CampaignReport
from repro.stats.compare import COMPARE_SCHEMA

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

    def test_kind_mismatch_exits_two(self, capsys, artifact, reports):
        a = artifact("a.json", _campaign())
        assert main(["compare", a, str(reports["stream"])]) == 2
        assert "same kind" in capsys.readouterr().err

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
