"""The Telemetry session facade: framing, heartbeats, ticker, null path."""

from __future__ import annotations

import io

import pytest

from repro.errors import ObsError
from repro.obs import (
    NULL_TELEMETRY,
    TELEMETRY_SCHEMA,
    MemorySink,
    ProgressTicker,
    Telemetry,
    classify_events,
    render_progress,
)


class TestSessionFraming:
    def test_first_event_is_the_schema_header(self):
        telemetry = Telemetry(MemorySink())
        header = telemetry.sink.events[0]
        assert header["type"] == "telemetry_start"
        assert header["seq"] == 0
        assert header["data"]["schema"] == TELEMETRY_SCHEMA
        import repro

        assert header["data"]["version"] == repro.__version__

    def test_close_emits_end_with_the_event_count(self):
        telemetry = Telemetry(MemorySink())
        telemetry.emit("run_start", kind="stream")
        telemetry.close()
        end = telemetry.sink.events[-1]
        assert end["type"] == "telemetry_end"
        assert end["data"]["events"] == 2  # header + run_start

    def test_close_is_idempotent_and_seals_the_session(self):
        telemetry = Telemetry(MemorySink())
        telemetry.close()
        telemetry.close()
        telemetry.emit("run_start", kind="stream")
        telemetry.beat("late", 1, 1)
        types = [e["type"] for e in telemetry.sink.events]
        assert types == ["telemetry_start", "telemetry_end"]

    def test_emitted_stream_validates_clean(self):
        telemetry = Telemetry(MemorySink())
        with telemetry.span("plan"):
            telemetry.emit("checkpoint", shard=0)
        telemetry.beat("campaign", 1, 2, force=True)
        telemetry.close()
        assert classify_events(telemetry.sink.events) == ([], [])

    def test_seq_and_t_ms_are_monotonic(self):
        telemetry = Telemetry(MemorySink())
        for shard in range(5):
            telemetry.emit("shard_end", shard=shard)
        events = telemetry.sink.events
        assert [e["seq"] for e in events] == list(range(len(events)))
        stamps = [e["t_ms"] for e in events]
        assert stamps == sorted(stamps)


class TestNullPath:
    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False

    def test_default_session_drops_everything(self):
        telemetry = Telemetry()
        telemetry.emit("run_start", kind="stream")
        telemetry.beat("stream", 1, 2)
        with telemetry.span("simulate"):
            pass
        telemetry.close()  # no sink, no error

    def test_progress_only_session_is_enabled_but_sinkless(self):
        stream = io.StringIO()
        telemetry = Telemetry(progress=ProgressTicker(stream))
        assert telemetry.enabled is True
        assert telemetry.sink.enabled is False
        telemetry.beat("campaign", 1, 4, force=True)
        telemetry.close()
        assert "[campaign] 1/4" in stream.getvalue()


class TestHeartbeat:
    def test_first_beat_always_emits(self):
        telemetry = Telemetry(MemorySink(), heartbeat_s=3600.0)
        telemetry.beat("campaign", 1, 8)
        beats = [e for e in telemetry.sink.events
                 if e["type"] == "heartbeat"]
        assert len(beats) == 1
        assert beats[0]["data"]["done"] == 1
        assert beats[0]["data"]["total"] == 8
        assert "counters" in beats[0]["data"]["metrics"]

    def test_throttle_suppresses_rapid_beats(self):
        telemetry = Telemetry(MemorySink(), heartbeat_s=3600.0)
        for done in range(10):
            telemetry.beat("campaign", done, 10)
        beats = [e for e in telemetry.sink.events
                 if e["type"] == "heartbeat"]
        assert len(beats) == 1

    def test_forced_beat_bypasses_the_throttle(self):
        telemetry = Telemetry(MemorySink(), heartbeat_s=3600.0)
        telemetry.beat("campaign", 1, 10)
        telemetry.beat("campaign", 10, 10, force=True)
        beats = [e for e in telemetry.sink.events
                 if e["type"] == "heartbeat"]
        assert [b["data"]["done"] for b in beats] == [1, 10]

    def test_rate_counter_snapshot_rides_the_heartbeat(self):
        telemetry = Telemetry(MemorySink(), heartbeat_s=3600.0)
        telemetry.metrics.add("injections", 400)
        telemetry.beat("campaign", 1, 8, rate_counter="injections",
                       unit="inj/s")
        (beat,) = [e for e in telemetry.sink.events
                   if e["type"] == "heartbeat"]
        assert "injections" in beat["data"]["rates"]
        assert beat["data"]["metrics"]["counters"]["injections"] == 400

    def test_non_positive_heartbeat_rejected(self):
        with pytest.raises(ObsError, match="must be positive"):
            Telemetry(MemorySink(), heartbeat_s=0.0)


class TestProgressRendering:
    def test_render_progress_shapes(self):
        assert render_progress("campaign", 3, 8) == "[campaign] 3/8 (37.5%)"
        assert render_progress("stream", 5, 0) == "[stream] 5"
        line = render_progress("stream", 5, 10, rate=1234.5,
                               unit="frames/s")
        assert line.endswith("1,234 frames/s")

    def test_ticker_overwrites_and_closes_with_newline(self):
        stream = io.StringIO()
        ticker = ProgressTicker(stream, min_interval_s=0.0)
        ticker.update("[x] 1/2 longer line")
        ticker.update("[x] 2/2", force=True)
        ticker.close()
        ticker.close()  # idempotent
        text = stream.getvalue()
        assert text.startswith("\r[x] 1/2 longer line")
        # the second paint pads to erase the first
        assert "\r[x] 2/2 " in text
        assert text.endswith("\n")

    def test_ticker_throttles_rapid_updates(self):
        stream = io.StringIO()
        ticker = ProgressTicker(stream, min_interval_s=3600.0)
        assert ticker.update("first") is True
        assert ticker.update("dropped") is False
        assert ticker.update("final", force=True) is True

    def test_ticker_survives_a_closed_stream(self):
        stream = io.StringIO()
        ticker = ProgressTicker(stream, min_interval_s=0.0)
        ticker.update("painted")
        stream.close()
        assert ticker.update("dropped", force=True) is False
        ticker.close()  # best-effort, no raise


class TestCreate:
    def test_create_wires_a_jsonl_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=path)
        telemetry.close()
        text = path.read_text()
        assert '"telemetry_start"' in text
        assert '"telemetry_end"' in text

    def test_create_without_observers_is_disabled(self):
        assert Telemetry.create().enabled is False

    def test_create_progress_uses_the_given_stream(self):
        stream = io.StringIO()
        telemetry = Telemetry.create(progress=True, stream=stream)
        telemetry.beat("stream", 1, 2, force=True)
        telemetry.close()
        assert "[stream] 1/2" in stream.getvalue()
