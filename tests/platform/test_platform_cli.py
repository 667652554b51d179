"""Tests for the platform CLI subcommands and the analysis sweeps."""

from __future__ import annotations

import json

import pytest

from repro.analysis.platform import device_count_sweep
from repro.api import StreamSpec
from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.cli import main


def _spec() -> PlatformSpec:
    return PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="embedded-igpu")),
        tasks=(StreamSpec.for_task("camera-perception", frames=120),
               StreamSpec.for_task("radar-cfar", frames=120)),
        tag="cli-platform",
    )


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(_spec().to_json(indent=2))
    return path


class TestPlatformRun:
    def test_table_output(self, capsys, spec_file):
        assert main(["platform", "run", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "cli-platform" in out
        assert "verdict" in out

    def test_json_output(self, capsys, spec_file):
        assert main(["platform", "run", "--spec", str(spec_file),
                     "--workers", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "cli-platform"
        assert payload["asil"]["verdict"] == "pass"
        assert set(payload["placement"]) == {
            "camera-perception", "radar-cfar"
        }

    def test_frames_override(self, capsys, spec_file):
        assert main(["platform", "run", "--spec", str(spec_file),
                     "--frames", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["frames"] == 120  # 2 tasks x 60

    def test_bad_frames_override(self, capsys, spec_file):
        assert main(["platform", "run", "--spec", str(spec_file),
                     "--frames", "0"]) == 1
        assert "frames" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys, tmp_path):
        assert main(["platform", "run", "--spec",
                     str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestPlatformPlan:
    def test_plan_table(self, capsys, spec_file):
        assert main(["platform", "plan", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "camera-perception" in out
        assert "(device total)" in out

    def test_plan_json(self, capsys, spec_file):
        assert main(["platform", "plan", "--spec", str(spec_file),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "balanced"
        assert set(payload["device_utilisation"]) == {"gpu0", "gpu1"}

    def test_infeasible_spec_errors(self, capsys, tmp_path):
        spec = PlatformSpec(
            devices=(DeviceSpec(name="tiny", capacity=1e-6),),
            tasks=(StreamSpec.for_task("radar-cfar", frames=60),),
        )
        path = tmp_path / "bad.json"
        path.write_text(spec.to_json())
        assert main(["platform", "plan", "--spec", str(path)]) == 1
        assert "radar-cfar" in capsys.readouterr().err


class TestPlatformReportCommand:
    def test_out_then_report_round_trip(self, capsys, spec_file, tmp_path):
        out_file = tmp_path / "report.json"
        assert main(["platform", "run", "--spec", str(spec_file),
                     "--out", str(out_file)]) == 0
        run_out = capsys.readouterr().out
        assert out_file.exists()

        assert main(["platform", "report", "--report", str(out_file)]) == 0
        report_out = capsys.readouterr().out
        digest_rows = [line for line in run_out.splitlines()
                       if line.startswith("digest")]
        assert digest_rows and digest_rows[0] in report_out

    def test_report_rejects_non_report_json(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": "world"}))
        assert main(["platform", "report", "--report", str(bogus)]) == 1
        assert "missing" in capsys.readouterr().err


class TestAnalysisSweeps:
    def test_device_count_sweep_rows(self):
        tasks = (StreamSpec.for_task("camera-perception", frames=100),
                 StreamSpec.for_task("radar-cfar", frames=100))
        rows = device_count_sweep(tasks, [1, 2])
        assert [row.devices for row in rows] == [1, 2]
        assert all(row.frames == 200 for row in rows)
        assert rows[1].max_utilisation <= rows[0].max_utilisation
        assert all(len(row.digest) == 16 for row in rows)

    def test_example_spec_file_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / "specs" / (
            "platform.json"
        )
        spec = PlatformSpec.from_json(path.read_text())
        assert spec.tag == "platform-quickstart"
        assert len(spec.devices) == 3
        assert len(spec.tasks) == 4
