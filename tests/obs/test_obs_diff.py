"""Cross-run diffing: span-path alignment, significance, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import OBS_DIFF_SCHEMA, diff_events, render_diff


def _run_events(shard_ms: float, *, baseline_ms: float = 2.0,
                frames: int = 100) -> list:
    """A synthetic campaign run: execute -> 3x shard (+ baseline child).

    Every shard occurrence takes exactly ``shard_ms`` of self time, so
    two runs differ only where the caller says they do — no wall-clock
    noise in the fixture.
    """
    events = []
    seq = 0
    t = 0.0

    def emit(etype, **data):
        nonlocal seq
        events.append({"type": etype, "seq": seq, "t_ms": round(t, 3),
                       "data": data})
        seq += 1

    emit("telemetry_start", schema="repro-telemetry/v1", version="test")
    emit("run_start", kind="campaign", label="bench", spec_hash="abc123")
    emit("span_start", span=1, parent=None, name="execute")
    span_id = 2
    for _ in range(3):
        emit("span_start", span=span_id, parent=1, name="shard")
        emit("span_start", span=span_id + 1, parent=span_id,
             name="baseline")
        t += baseline_ms
        emit("span_end", span=span_id + 1, dur_ms=baseline_ms)
        t += shard_ms
        emit("span_end", span=span_id, dur_ms=shard_ms + baseline_ms)
        span_id += 2
    t += 0.5
    emit("span_end", span=1, dur_ms=t)
    emit("heartbeat", label="campaign", done=3, total=3,
         metrics={"counters": {"frames": frames}, "gauges": {}})
    emit("run_end", kind="campaign", digest="feedc0de")
    emit("telemetry_end", events=seq + 1)
    return events


class TestDiffEvents:
    def test_identical_runs_are_not_significant(self):
        payload = diff_events(_run_events(4.0), _run_events(4.0))
        assert payload["schema"] == OBS_DIFF_SCHEMA
        assert not payload["significant"]
        assert payload["regressions"] == []
        assert all(r["verdict"] == "unchanged" for r in payload["spans"])

    def test_slowed_span_is_a_named_regression(self):
        payload = diff_events(_run_events(4.0), _run_events(9.0))
        assert payload["significant"]
        assert "execute/shard" in payload["regressions"]
        row = next(r for r in payload["spans"]
                   if r["path"] == "execute/shard")
        assert row["method"] == "welch-z"
        assert row["verdict"] == "regression"
        assert row["delta_ms"] == pytest.approx(15.0)
        assert row["interval"]["low"] > 0
        # the untouched child is not blamed: self time excludes children
        child = next(r for r in payload["spans"]
                     if r["path"] == "execute/shard/baseline")
        assert child["verdict"] == "unchanged"

    def test_speedup_is_an_improvement_not_a_regression(self):
        payload = diff_events(_run_events(9.0), _run_events(4.0))
        row = next(r for r in payload["spans"]
                   if r["path"] == "execute/shard")
        assert row["verdict"] == "improvement"
        assert row["significant"]
        assert payload["regressions"] == []
        assert payload["significant"]

    def test_magnitude_floors_suppress_tiny_deltas(self):
        # 0.4 ms total delta: under the 1 ms absolute floor
        payload = diff_events(_run_events(2.0), _run_events(2.1333))
        row = next(r for r in payload["spans"]
                   if r["path"] == "execute/shard")
        assert row["verdict"] == "unchanged"
        # loosening the floors makes the same delta significant
        payload = diff_events(_run_events(2.0), _run_events(2.1333),
                              min_abs_ms=0.1, min_rel=0.01)
        row = next(r for r in payload["spans"]
                   if r["path"] == "execute/shard")
        assert row["verdict"] == "regression"

    def test_missing_path_reports_presence(self):
        a = _run_events(4.0)
        b = [e for e in _run_events(4.0)
             if e["data"].get("name") != "baseline"
             and not (e["type"] == "span_end"
                      and e["data"].get("dur_ms") == 2.0)]
        payload = diff_events(a, b)
        row = next(r for r in payload["spans"]
                   if r["path"] == "execute/shard/baseline")
        assert row["method"] == "presence"
        assert row["verdict"] == "only_a"
        assert row["significant"]  # 6 ms of self time vanished

    def test_counter_drift_is_significant(self):
        payload = diff_events(_run_events(4.0),
                              _run_events(4.0, frames=90))
        row = next(r for r in payload["counters"]
                   if r["name"] == "frames")
        assert row["drift"]
        assert row["delta"] == -10.0
        assert payload["significant"]

    def test_rates_use_per_session_elapsed_time(self):
        payload = diff_events(_run_events(4.0), _run_events(4.0))
        row = next(r for r in payload["counters"]
                   if r["name"] == "frames")
        elapsed_s = payload["a"]["elapsed_ms"] / 1000.0
        assert row["rate_a"] == pytest.approx(100.0 / elapsed_s, rel=1e-3)


class TestRenderDiff:
    def test_render_marks_significant_rows(self):
        text = render_diff(diff_events(_run_events(4.0), _run_events(9.0)))
        line = next(ln for ln in text.splitlines()
                    if "execute/shard " in ln or ln.strip()
                    .startswith("* execute/shard"))
        assert line.lstrip().startswith("*")
        assert "significant span path(s)" in text

    def test_render_states_the_null_verdict(self):
        text = render_diff(diff_events(_run_events(4.0), _run_events(4.0)))
        assert "verdict: no significant difference" in text


class TestObsDiffCli:
    """Two telemetry files in, a verdict and an exit code out."""

    def _write(self, tmp_path, name, events) -> str:
        path = tmp_path / name
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return str(path)

    def test_runs_with_slowed_span_exit_one(self, capsys, tmp_path):
        base = self._write(tmp_path, "a.jsonl", _run_events(4.0))
        cand = self._write(tmp_path, "b.jsonl", _run_events(9.0))
        code = main(["obs", "diff", base, cand])
        out = capsys.readouterr().out
        assert code == 1
        assert "execute/shard" in out
        assert "[regression]" in out

    def test_each_side_is_labelled_with_its_path(self, capsys, tmp_path):
        base = self._write(tmp_path, "a.jsonl", _run_events(4.0))
        cand = self._write(tmp_path, "b.jsonl", _run_events(4.0))
        assert main(["obs", "diff", base, cand]) == 0
        out = capsys.readouterr().out
        assert f"A: {base} (" in out and f"B: {cand} (" in out
        assert main(["obs", "diff", base, cand, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["a"]["label"], payload["b"]["label"]) == (base, cand)

    def test_identical_files_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n"
                                for e in _run_events(4.0)))
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "no significant difference" in capsys.readouterr().out

    def test_json_payload_carries_the_schema(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n"
                                for e in _run_events(4.0)))
        assert main(["obs", "diff", str(path), str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == OBS_DIFF_SCHEMA
        assert payload["a"]["label"] == str(path)

    def test_bad_confidence_exits_two(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n"
                                for e in _run_events(4.0)))
        assert main(["obs", "diff", str(path), str(path),
                     "--confidence", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err
