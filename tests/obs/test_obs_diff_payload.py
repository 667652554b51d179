"""``repro obs diff --json`` payload pinned byte for byte.

The Welch interval behind the span verdicts lives in
:func:`repro.stats.intervals.welch_interval`; this pin proves the
payload of a two-file diff (noisy per-occurrence self times, a missing
path and a drifting counter) is exactly what it was before the interval
moved there.
"""

from __future__ import annotations

import hashlib
import json

from repro.cli import main

#: sha256 of the ``obs diff a.jsonl b.jsonl --json`` stdout.
PAYLOAD_SHA256 = "80828953a1c03f442c71ffff4324698809e2cd2d33da0a271957fb601fe4a0fc"


def _events(shard_ms, *, frames: int, child: bool = True) -> list:
    """execute -> one shard span per ``shard_ms`` entry (+ a child)."""
    events = []
    t = 0.0

    def emit(etype, **data):
        events.append({"type": etype, "seq": len(events),
                       "t_ms": round(t, 3), "data": data})

    emit("telemetry_start", schema="repro-telemetry/v1", version="test")
    emit("span_start", span=1, parent=None, name="execute")
    for i, ms in enumerate(shard_ms):
        span = 2 + 2 * i
        emit("span_start", span=span, parent=1, name="shard")
        if child:
            emit("span_start", span=span + 1, parent=span, name="baseline")
            t += 1.5
            emit("span_end", span=span + 1, dur_ms=1.5)
        t += ms
        emit("span_end", span=span, dur_ms=ms + (1.5 if child else 0.0))
    t += 0.25
    emit("span_end", span=1, dur_ms=t)
    emit("heartbeat", label="campaign", done=len(shard_ms),
         total=len(shard_ms),
         metrics={"counters": {"frames": frames}, "gauges": {}})
    emit("telemetry_end", events=len(events) + 1)
    return events


def test_two_file_diff_payload_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runs = {
        "a.jsonl": _events([4.0, 4.6, 3.7, 4.2], frames=100),
        "b.jsonl": _events([9.1, 8.4, 9.9], frames=90, child=False),
    }
    for name, events in runs.items():
        (tmp_path / name).write_text(
            "".join(json.dumps(e) + "\n" for e in events))
    assert main(["obs", "diff", "a.jsonl", "b.jsonl", "--json"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert {row["method"] for row in payload["spans"]} == {
        "threshold", "welch-z", "presence"}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAYLOAD_SHA256
