"""Sinks and the torn-line-tolerant telemetry reader."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    NULL_SINK,
    JsonlSink,
    MemorySink,
    read_telemetry,
)


def _line(etype: str, seq: int, **data) -> str:
    return json.dumps(
        {"type": etype, "seq": seq, "t_ms": float(seq), "data": data}
    )


def _header_line(seq: int = 0) -> str:
    return _line("telemetry_start", seq, schema="repro-telemetry/v1")


class TestNullSink:
    def test_disabled_and_droppy(self):
        assert NULL_SINK.enabled is False
        NULL_SINK.emit({"type": "heartbeat"})  # no-op, no error
        NULL_SINK.close()


class TestMemorySink:
    def test_collects_in_emission_order(self):
        sink = MemorySink()
        assert sink.enabled is True
        sink.emit({"seq": 0})
        sink.emit({"seq": 1})
        assert [e["seq"] for e in sink.events] == [0, 1]


class TestJsonlSink:
    def test_writes_one_compact_line_per_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "heartbeat", "seq": 0, "t_ms": 1.0, "data": {}})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "heartbeat"

    def test_append_mode_stacks_sessions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for session in range(2):
            sink = JsonlSink(path)
            sink.emit({"session": session})
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_repairs_missing_trailing_newline_before_appending(
            self, tmp_path):
        # a killed writer left a torn trailing line: the next sink
        # truncates it before appending (the journal's repair rule)
        path = tmp_path / "t.jsonl"
        path.write_text(_header_line() + "\n" + '{"type": "hea')
        sink = JsonlSink(path)
        sink.emit({"type": "telemetry_start", "seq": 0, "t_ms": 0.0,
                   "data": {"schema": "repro-telemetry/v1"}})
        sink.close()
        lines = path.read_text().splitlines()
        assert lines[0] == _header_line()
        assert len(lines) == 2
        assert json.loads(lines[1])["type"] == "telemetry_start"

    def test_emit_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.close()
        sink.close()  # idempotent
        sink.emit({"late": True})
        assert path.read_text() == ""

    def test_unopenable_path_raises_obs_error(self, tmp_path):
        with pytest.raises(ObsError, match="cannot open telemetry file"):
            JsonlSink(tmp_path / "missing-dir" / "t.jsonl")

    def test_full_disk_raises_obs_error_and_the_next_sink_repairs_it(
            self, tmp_path, monkeypatch, full_disk):
        # the failed write leaves half a line; a resume's sink cuts it
        path = tmp_path / "t.jsonl"
        full_disk("write", after=1)
        sink = JsonlSink(path)
        sink.emit(json.loads(_header_line()))
        with pytest.raises(ObsError, match="No space left on device"):
            sink.emit(json.loads(_line("heartbeat", 1)))
        sink.close()
        assert not path.read_text().endswith("\n")
        monkeypatch.undo()
        sink = JsonlSink(path)
        sink.emit(json.loads(_header_line()))
        sink.close()
        assert read_telemetry(path) == [json.loads(_header_line())] * 2


class TestReadTelemetry:
    def test_reads_events_in_file_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_header_line() + "\n" + _line("heartbeat", 1) + "\n")
        events = read_telemetry(path)
        assert [e["type"] for e in events] == ["telemetry_start",
                                              "heartbeat"]

    def test_trailing_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_header_line() + "\n" + '{"type": "shard_')
        events = read_telemetry(path)
        assert [e["type"] for e in events] == ["telemetry_start"]

    def test_torn_line_before_a_resume_session_is_skipped(self, tmp_path):
        # writer died mid-line, then a resume appended a fresh session
        path = tmp_path / "t.jsonl"
        path.write_text(
            _header_line() + "\n"
            + '{"type": "shard_end", "se' + "\n"
            + _header_line() + "\n"
            + _line("heartbeat", 1) + "\n"
        )
        events = read_telemetry(path)
        assert [e["type"] for e in events] == [
            "telemetry_start", "telemetry_start", "heartbeat",
        ]

    def test_mid_session_corruption_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            _header_line() + "\n"
            + "GARBAGE\n"
            + _line("heartbeat", 1) + "\n"
        )
        with pytest.raises(ObsError, match="corrupt telemetry line"):
            read_telemetry(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2]\n" + _header_line() + "\n")
        with pytest.raises(ObsError, match="not a JSON object"):
            read_telemetry(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read telemetry file"):
            read_telemetry(tmp_path / "absent.jsonl")

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n" + _header_line() + "\n\n")
        assert len(read_telemetry(path)) == 1
