"""The obs CLI (validate/report), run-command telemetry flags, profiled()."""

from __future__ import annotations

import io
import json
import pstats
import re

import pytest

from repro.api import (
    CampaignSpec,
    DeviceSpec,
    FaultPlanSpec,
    PlacementSpec,
    PlatformSpec,
    RunSpec,
    StreamSpec,
    WorkloadSpec,
)
from repro.cli import main
from repro.errors import ObsError
from repro.obs import Telemetry, classify_events, profiled, read_telemetry


@pytest.fixture
def telemetry_file(tmp_path):
    """A schema-valid two-event telemetry file."""
    path = tmp_path / "t.jsonl"
    header = {"type": "telemetry_start", "seq": 0, "t_ms": 0.0,
              "data": {"schema": "repro-telemetry/v1", "version": "x"}}
    end = {"type": "telemetry_end", "seq": 1, "t_ms": 1.0,
           "data": {"events": 2}}
    path.write_text(json.dumps(header) + "\n" + json.dumps(end) + "\n")
    return path


class TestObsValidate:
    def test_valid_file_exits_zero(self, capsys, telemetry_file):
        assert main(["obs", "validate", str(telemetry_file)]) == 0
        assert "2 event(s) OK (repro-telemetry/v1)" in capsys.readouterr().out

    def test_schema_violations_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "telemetry_start", "seq": 0, '
                        '"t_ms": 0.0, "data": {"schema": "wrong/v9"}}\n')
        assert main(["obs", "validate", str(path)]) == 1
        assert "declares schema" in capsys.readouterr().err

    def test_unknown_event_type_warns_by_default(self, capsys,
                                                 telemetry_file):
        lines = telemetry_file.read_text().splitlines()
        lines.insert(1, '{"type": "warp_drive", "seq": 5, "t_ms": 0.5, '
                        '"data": {}}')
        # renumber: keep seq monotonic so only the type is suspect
        telemetry_file.write_text(
            lines[0] + "\n" + lines[1] + "\n"
            + lines[2].replace('"seq": 1', '"seq": 9') + "\n")
        assert main(["obs", "validate", str(telemetry_file)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "unknown event type" in captured.err
        assert "1 warning(s)" in captured.out

    def test_strict_promotes_warnings_to_violations(self, capsys,
                                                    telemetry_file):
        lines = telemetry_file.read_text().splitlines()
        lines.insert(1, '{"type": "warp_drive", "seq": 5, "t_ms": 0.5, '
                        '"data": {}}')
        telemetry_file.write_text(
            lines[0] + "\n" + lines[1] + "\n"
            + lines[2].replace('"seq": 1', '"seq": 9') + "\n")
        assert main(["obs", "validate", str(telemetry_file),
                     "--strict"]) == 1
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "unknown event type" in captured.err

    def test_torn_tail_of_non_final_session_is_surfaced(self, capsys,
                                                        tmp_path):
        # a kill-resume log: session 1's last line is torn, session 2
        # follows — validate must note the tear but stay green
        path = tmp_path / "t.jsonl"
        header = ('{"type": "telemetry_start", "seq": 0, "t_ms": 0.0, '
                  '"data": {"schema": "repro-telemetry/v1", '
                  '"version": "x"}}')
        path.write_text(
            header + "\n"
            + '{"type": "checkpoint", "seq": 1, "t_ms": 1.0, "da'
            + "\n" + header + "\n"
            + '{"type": "telemetry_end", "seq": 1, "t_ms": 1.0, '
              '"data": {"events": 2}}\n')
        assert main(["obs", "validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "torn line 2" in captured.err
        assert "interrupted session" in captured.err
        assert "1 torn line(s) skipped" in captured.out
        # strictness is about schema findings, not kill artefacts
        assert main(["obs", "validate", str(path), "--strict"]) == 0

    def test_unreadable_file_exits_two(self, capsys, tmp_path):
        assert main(["obs", "validate", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mid_session_corruption_exits_two(self, capsys, telemetry_file):
        lines = telemetry_file.read_text().splitlines()
        telemetry_file.write_text(
            lines[0] + "\nGARBAGE\n" + lines[1] + "\n"
        )
        assert main(["obs", "validate", str(telemetry_file)]) == 2
        assert "corrupt telemetry line" in capsys.readouterr().err


class TestObsReport:
    def test_text_report(self, capsys, telemetry_file):
        assert main(["obs", "report", str(telemetry_file)]) == 0
        assert "Telemetry report — 1 session(s)" in capsys.readouterr().out

    def test_json_report_carries_the_schema_tag(self, capsys,
                                                telemetry_file):
        assert main(["obs", "report", str(telemetry_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-obs-report/v1"
        assert payload["sessions"] == 1

    @pytest.mark.parametrize("action", [
        ["report"], ["export", "--chrome"], ["diff"]],
        ids=["report", "export", "diff"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, action):
        absent = str(tmp_path / "absent.jsonl")
        argv = ["obs", action[0], absent, *action[1:]]
        if action[0] == "diff":
            argv.append(absent)
        assert main(argv) == 2
        assert (f"cannot read telemetry file {absent!r}: no such file"
                in capsys.readouterr().err)


class TestObsExportCli:
    def test_chrome_export_to_stdout(self, capsys, telemetry_file):
        assert main(["obs", "export", str(telemetry_file),
                     "--chrome"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "traceEvents" in payload

    def test_csv_export_to_file(self, capsys, tmp_path, telemetry_file):
        out = tmp_path / "beats.csv"
        assert main(["obs", "export", str(telemetry_file), "--csv",
                     "--out", str(out)]) == 0
        assert "wrote csv export" in capsys.readouterr().out
        assert out.read_text().startswith("session,seq,t_ms")

    def test_exactly_one_format_is_required(self, capsys,
                                            telemetry_file):
        assert main(["obs", "export", str(telemetry_file)]) == 2
        assert main(["obs", "export", str(telemetry_file), "--chrome",
                     "--csv"]) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["chrome", "folded", "csv"])
    def test_out_file_holds_the_stdout_text(self, capsys, tmp_path, fmt):
        log = str(_work_log(tmp_path / "t.jsonl"))
        assert main(["obs", "export", log, f"--{fmt}"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / f"export.{fmt}"
        assert main(["obs", "export", log, f"--{fmt}",
                     "--out", str(out)]) == 0
        assert f"wrote {fmt} export to {out}" in capsys.readouterr().out
        assert out.read_text() == stdout


def _work_log(path):
    """A real session log: an ``execute`` span over three ``shard``
    spans, one forced heartbeat in each."""
    telemetry = Telemetry.create(path=path)
    with telemetry.span("execute"):
        for done in range(1, 4):
            with telemetry.span("shard"):
                telemetry.beat("campaign", done, 3, force=True)
    telemetry.close()
    return path


#: reader -> its argv reading the telemetry file ``path``
READERS = {
    "report": lambda path: ["obs", "report", path],
    "validate": lambda path: ["obs", "validate", path],
    "export": lambda path: ["obs", "export", path, "--chrome"],
    "diff": lambda path: ["obs", "diff", path, path],
}

_HEADER = ('{"type": "telemetry_start", "seq": 0, "t_ms": 0.0, '
           '"data": {"schema": "repro-telemetry/v1", "version": "x"}}')
_END = '{"type": "telemetry_end", "seq": 1, "t_ms": 1.0, "data": {}}'

#: bad input -> (puts it at ``path``, what the error says about it)
BAD_INPUTS = {
    "directory": (lambda path: path.mkdir(), "no such file"),
    "mid-session-corruption": (
        lambda path: path.write_text(f"{_HEADER}\nGARBAGE\n{_END}\n"),
        "corrupt telemetry line 2"),
    "undecodable-bytes": (
        lambda path: path.write_bytes(
            f"{_HEADER}\n".encode() + b"\xff\xfe\x00\n"
            + f"{_END}\n".encode()),
        "corrupt telemetry line 2"),
    "non-object-line": (
        lambda path: path.write_text(f"{_HEADER}\n[1, 2]\n{_END}\n"),
        ":2: telemetry line is not a JSON object"),
}


class TestEveryReaderTakesOneFile:
    """``report``, ``validate``, ``export`` and ``diff`` read a telemetry
    file by the same rules: bad input exits 2 naming the file, a torn
    last line is skipped."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
    def test_bad_input_exits_two_naming_the_file(self, capsys, tmp_path,
                                                 bad, reader):
        path = tmp_path / "t.jsonl"
        write, message = BAD_INPUTS[bad]
        write(path)
        assert main(READERS[reader](str(path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and message in err

    @pytest.mark.parametrize("argv", [
        ["report"], ["export", "--chrome"], ["export", "--folded"],
        ["export", "--csv"], ["diff"]],
        ids=["report", "chrome", "folded", "csv", "diff"])
    def test_a_torn_last_line_is_skipped(self, capsys, tmp_path,
                                         monkeypatch, argv):
        # a writer killed in its last line: the reader prints what it
        # prints for the log without that line
        lines = _work_log(tmp_path / "run.jsonl").read_text().splitlines()
        whole = "".join(line + "\n" for line in lines[:-1])
        outputs = []
        for name, text in (("whole", whole),
                           ("torn", whole + lines[-1][:len(lines[-1]) // 2])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "t.jsonl").write_text(text)
            monkeypatch.chdir(tmp_path / name)  # one label in both diffs
            command = ["obs", argv[0], "t.jsonl", *argv[1:]]
            if argv[0] == "diff":
                command.append("t.jsonl")
            assert main(command) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert "shard" in outputs[0] or "campaign" in outputs[0]

    @pytest.mark.parametrize("action", [
        ["report"], ["export", "--chrome"], ["diff"]],
        ids=["report", "export", "diff"])
    def test_no_reader_takes_an_archive_directory(self, capsys, tmp_path,
                                                  action):
        log = str(_work_log(tmp_path / "t.jsonl"))
        argv = ["obs", action[0], "--dir", str(tmp_path), log, *action[1:]]
        if action[0] == "diff":
            argv.append(log)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --dir" in capsys.readouterr().err

    def test_help_lists_exactly_the_four_actions(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^    (\w+)  ", capsys.readouterr().out,
                            flags=re.MULTILINE)
        assert listed == ["report", "validate", "export", "diff"]


def _check_file(path) -> list:
    events = read_telemetry(path)
    assert classify_events(events) == ([], [])
    return events


class TestRunCommandTelemetry:
    def test_campaign_run_writes_a_valid_log(self, capsys, tmp_path):
        spec = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="srrs"),
            faults=FaultPlanSpec(transient_ccf=30, permanent_sm=10, seu=10,
                                 seed=7),
            shards=4,
        )
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(spec.to_json())
        log = tmp_path / "t.jsonl"
        assert main(["campaign", "run", "--spec", str(spec_file),
                     "--telemetry", str(log)]) == 0
        capsys.readouterr()
        events = _check_file(log)
        types = {e["type"] for e in events}
        assert {"telemetry_start", "run_start", "shard_start", "shard_end",
                "heartbeat", "span_start", "span_end", "run_end",
                "telemetry_end"} <= types
        (run_end,) = [e for e in events if e["type"] == "run_end"]
        assert run_end["data"]["kind"] == "campaign"
        assert "digest" in run_end["data"]

    def test_campaign_resume_appends_a_second_session(self, capsys,
                                                      tmp_path):
        spec = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="srrs"),
            faults=FaultPlanSpec(transient_ccf=30, permanent_sm=10, seu=10,
                                 seed=7),
            shards=4,
        )
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(spec.to_json())
        store = tmp_path / "store"
        log = tmp_path / "t.jsonl"
        assert main(["campaign", "run", "--spec", str(spec_file),
                     "--dir", str(store), "--max-shards", "2",
                     "--telemetry", str(log)]) == 0
        assert main(["campaign", "resume", "--dir", str(store),
                     "--telemetry", str(log)]) == 0
        capsys.readouterr()
        events = _check_file(log)
        headers = [e for e in events if e["type"] == "telemetry_start"]
        assert len(headers) == 2

    def test_stream_run_writes_a_valid_log(self, capsys, tmp_path):
        log = tmp_path / "t.jsonl"
        assert main(["stream", "run", "--task", "camera-perception",
                     "--frames", "300", "--telemetry", str(log)]) == 0
        capsys.readouterr()
        events = _check_file(log)
        types = {e["type"] for e in events}
        assert {"run_start", "frame_window", "heartbeat", "run_end"} <= types
        (run_end,) = [e for e in events if e["type"] == "run_end"]
        assert run_end["data"]["kind"] == "stream"

    def test_platform_run_writes_a_valid_log(self, capsys, tmp_path):
        spec = PlatformSpec(
            devices=(DeviceSpec(name="gpu0"),
                     DeviceSpec(name="gpu1", preset="pcie4-discrete")),
            tasks=(StreamSpec.for_task("camera-perception", frames=150),
                   StreamSpec.for_task("radar-cfar", frames=150)),
            placement=PlacementSpec(policy="balanced"),
        )
        spec_file = tmp_path / "platform.json"
        spec_file.write_text(spec.to_json())
        log = tmp_path / "t.jsonl"
        assert main(["platform", "run", "--spec", str(spec_file),
                     "--telemetry", str(log)]) == 0
        capsys.readouterr()
        events = _check_file(log)
        device_ends = [e for e in events if e["type"] == "device_end"]
        assert {e["data"]["device"] for e in device_ends} == {"gpu0", "gpu1"}
        # in-process devices run instrumented, so their stream run_end
        # events nest inside the platform one
        (run_end,) = [e for e in events if e["type"] == "run_end"
                      and e["data"].get("kind") == "platform"]
        assert "verdict" in run_end["data"]

    def test_obs_report_renders_a_real_run_log(self, capsys, tmp_path):
        log = tmp_path / "t.jsonl"
        assert main(["stream", "run", "--task", "camera-perception",
                     "--frames", "300", "--telemetry", str(log)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "frame_loop" in out

    def test_stream_profile_routes_through_profiled(self, capsys, tmp_path):
        stats_file = tmp_path / "out.pstats"
        assert main(["stream", "run", "--task", "camera-perception",
                     "--frames", "300", "--profile", str(stats_file)]) == 0
        capsys.readouterr()
        stats = pstats.Stats(str(stats_file))
        assert stats.total_calls > 0


class TestProfiled:
    def test_prints_top_rows_and_dumps_stats(self, tmp_path):
        out = tmp_path / "p.pstats"
        text = io.StringIO()
        with profiled(out=out, top=5, stream=text):
            sum(range(1000))
        assert out.is_file()
        assert "cumulative" in text.getvalue()

    def test_unwritable_out_raises_obs_error(self, tmp_path):
        with pytest.raises(ObsError, match="cannot write profile file"):
            with profiled(out=tmp_path / "no-dir" / "p.pstats"):
                pass
