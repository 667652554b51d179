"""Schema validation of repro-telemetry/v1 events and event streams."""

from __future__ import annotations

import pytest

from repro.obs import (
    EVENT_TYPES,
    TELEMETRY_SCHEMA,
    classify_events,
    validate_event,
)


def _event(etype: str = "heartbeat", seq: int = 1, t_ms: float = 5.0,
           **data) -> dict:
    return {"type": etype, "seq": seq, "t_ms": t_ms, "data": data}


def _header(seq: int = 0, t_ms: float = 0.0) -> dict:
    return _event("telemetry_start", seq, t_ms,
                  schema=TELEMETRY_SCHEMA, version="test")


def _strict(events: list) -> list:
    """Every finding, as ``obs validate --strict`` reports them."""
    problems, tolerated = classify_events(events)
    return problems + tolerated


class TestValidateEvent:
    def test_well_formed_event_passes(self):
        assert validate_event(_event()) == []

    @pytest.mark.parametrize("etype", EVENT_TYPES)
    def test_every_catalogued_type_is_accepted(self, etype):
        event = _event(etype)
        if etype == "telemetry_start":
            event["data"]["schema"] = TELEMETRY_SCHEMA
        assert validate_event(event) == []

    def test_unknown_type_rejected(self):
        problems = validate_event(_event("made_up"))
        assert any("unknown event type" in p for p in problems)

    def test_non_object_rejected(self):
        assert validate_event([1, 2]) == ["event is not a JSON object"]

    @pytest.mark.parametrize("seq", [-1, True, "3", None])
    def test_bad_seq_rejected(self, seq):
        event = _event()
        event["seq"] = seq
        assert any("'seq'" in p for p in validate_event(event))

    @pytest.mark.parametrize("t_ms", [-0.5, True, "now", None])
    def test_bad_t_ms_rejected(self, t_ms):
        event = _event()
        event["t_ms"] = t_ms
        assert any("'t_ms'" in p for p in validate_event(event))

    def test_extra_top_level_keys_rejected(self):
        event = _event()
        event["host"] = "gpu-box"
        assert any("unexpected top-level keys" in p
                   for p in validate_event(event))

    def test_extra_data_keys_tolerated(self):
        # payloads are additive within a schema generation
        assert validate_event(_event("shard_end", future_field=1)) == []

    def test_header_must_declare_the_schema(self):
        bad = _event("telemetry_start", 0, 0.0, schema="repro-telemetry/v9")
        assert any("declares schema" in p for p in validate_event(bad))

    def test_lineno_anchors_the_message(self):
        problems = validate_event("nope", lineno=12)
        assert problems == ["line 12: event is not a JSON object"]


class TestClassifyEvents:
    def test_empty_stream_is_a_problem(self):
        assert classify_events([]) == (
            ["no events (empty or fully torn telemetry stream)"], [])

    def test_single_session_stream_passes(self):
        events = [_header(), _event(seq=1, t_ms=1.0),
                  _event("telemetry_end", 2, 2.0)]
        assert classify_events(events) == ([], [])

    def test_stream_must_open_with_a_header(self):
        problems, _ = classify_events([_event(seq=0, t_ms=0.0)])
        assert any("before any" in p for p in problems)

    def test_seq_must_strictly_increase(self):
        events = [_header(), _event(seq=1), _event(seq=1, t_ms=6.0)]
        assert any("does not increase" in p for p in _strict(events))

    def test_t_ms_must_not_go_backwards(self):
        events = [_header(), _event(seq=1, t_ms=9.0),
                  _event(seq=2, t_ms=4.0)]
        problems, _ = classify_events(events)
        assert any("goes backwards" in p for p in problems)

    def test_concatenated_sessions_restart_seq_and_clock(self):
        # campaign run + resume appending to the same file
        events = [
            _header(), _event(seq=1, t_ms=7.0),
            _header(), _event(seq=1, t_ms=1.0),
        ]
        assert classify_events(events) == ([], [])

    def test_second_header_must_restart_at_seq_zero(self):
        second = _header()
        second["seq"] = 5
        problems, _ = classify_events([_header(), second])
        assert any("expected 0" in p for p in problems)

    def test_unknown_type_and_stale_seq_are_only_tolerated(self):
        events = [_header(), _event("bogus", 1, 1.0), _event(seq=1, t_ms=2.0)]
        problems, tolerated = classify_events(events)
        assert problems == []
        assert any("unknown event type" in t for t in tolerated)
        assert any("does not increase" in t for t in tolerated)

    def test_strict_reports_every_problem(self):
        events = [_event(seq=0), _event("bogus", 0, 1.0)]
        findings = _strict(events)
        assert any("before any" in p for p in findings)
        assert any("unknown event type" in p for p in findings)
