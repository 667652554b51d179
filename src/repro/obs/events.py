"""Typed telemetry events and the ``repro-telemetry/v1`` line schema.

A telemetry file is append-only JSONL: one event object per line, in
emission order.  Each event carries exactly four keys::

    {"type": "shard_end", "seq": 17, "t_ms": 412.8, "data": {...}}

* ``type`` — one of :data:`EVENT_TYPES`;
* ``seq`` — session-local sequence number, strictly increasing from 0;
* ``t_ms`` — milliseconds since the session's monotonic epoch (the
  construction of its :class:`~repro.obs.session.Telemetry`), never
  wall-clock time-of-day, so a telemetry file leaks no absolute
  timestamps and diffing two files is meaningful;
* ``data`` — the event's payload object (schema per type, additive).

The first event of every *session* (one writer lifetime) is a
``telemetry_start`` header whose ``data`` carries the schema tag
:data:`TELEMETRY_SCHEMA` and the emitting package version.  A file may
hold several concatenated sessions — ``campaign run`` followed by
``campaign resume`` with the same ``--telemetry`` path appends a second
session, mirroring the append-only campaign store.  ``seq`` and ``t_ms``
restart at each session header.

Digest-neutrality contract: events describe execution, they never feed
back into it.  No report, digest or resume decision may read a
telemetry file — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = [
    "EVENT_TYPES",
    "TELEMETRY_SCHEMA",
    "classify_events",
    "validate_event",
]

#: Schema tag carried by every session header's ``data.schema``.
TELEMETRY_SCHEMA = "repro-telemetry/v1"

#: Every event type of the v1 schema.  Readers must reject unknown
#: types (additions bump the schema tag) but tolerate extra ``data``
#: keys (payloads are additive within a schema generation).
EVENT_TYPES = (
    "telemetry_start",   # session header: schema tag, package version
    "telemetry_end",     # clean session close (absent after a kill)
    "run_start",         # one campaign/stream/platform/engine run begins
    "run_end",           # ... and ends; data carries the report digest
    "shard_start",       # campaign shard began executing
    "shard_end",         # campaign shard folded; data has outcome counts
    "frame_window",      # stream frame-loop progress window
    "device_start",      # platform device execution begins
    "device_end",        # ... and ends
    "checkpoint",        # a shard record was persisted to the store
    "worker_error",      # a worker raised; the run is about to fail
    "retry",             # a shard is re-dispatched after an interrupt
    "heartbeat",         # periodic metrics snapshot
    "span_start",        # tracing span opened
    "span_end",          # ... and closed; data carries the duration
)

_EVENT_TYPE_SET = frozenset(EVENT_TYPES)


def validate_event(payload: Any, *, lineno: int = 0) -> List[str]:
    """Validate one parsed telemetry line against the v1 event shape.

    Args:
        payload: the parsed JSON value of one line.
        lineno: 1-based line number used to anchor problem messages
            (``0`` for synthetic events with no file position).

    Returns:
        Human-readable problem strings; empty when the event is valid.
    """
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(payload, dict):
        return [f"{where}event is not a JSON object"]
    problems: List[str] = []
    etype = payload.get("type")
    if not isinstance(etype, str):
        problems.append(f"{where}missing or non-string 'type'")
    elif etype not in _EVENT_TYPE_SET:
        problems.append(f"{where}unknown event type {etype!r}")
    seq = payload.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append(f"{where}'seq' must be a non-negative integer")
    t_ms = payload.get("t_ms")
    if (not isinstance(t_ms, (int, float)) or isinstance(t_ms, bool)
            or t_ms < 0):
        problems.append(f"{where}'t_ms' must be a non-negative number")
    if not isinstance(payload.get("data"), dict):
        problems.append(f"{where}'data' must be an object")
    extra = sorted(k for k in payload if k not in
                   ("type", "seq", "t_ms", "data"))
    if extra:
        problems.append(f"{where}unexpected top-level keys {extra}")
    if (etype == "telemetry_start" and isinstance(payload.get("data"), dict)
            and payload["data"].get("schema") != TELEMETRY_SCHEMA):
        problems.append(
            f"{where}session header declares schema "
            f"{payload['data'].get('schema')!r}, expected "
            f"{TELEMETRY_SCHEMA!r}"
        )
    return problems


def classify_events(events: List[Dict[str, Any]]
                    ) -> Tuple[List[str], List[str]]:
    """Validate a whole event stream (possibly several sessions).

    Beyond the per-event shape, checks the session structure: the stream
    must open with a ``telemetry_start`` header, and within each session
    ``seq`` must be strictly increasing from 0 and ``t_ms`` monotonic
    non-decreasing.  A new ``telemetry_start`` restarts both (an
    appended resume session).

    Args:
        events: parsed events in file order (e.g. from
            :func:`~repro.obs.sink.read_telemetry`).

    Returns:
        ``(problems, tolerated)``, both in stream order.  ``tolerated``
        holds the two finding classes a *forward-compatible* reader
        (``repro obs validate`` without ``--strict``) reports as
        warnings only: unknown event types (a newer writer within the
        same schema family) and non-monotonic per-session ``seq``
        (interleaved merges from external tooling).  Everything else —
        malformed shapes, schema-tag mismatches, missing headers,
        backwards ``t_ms`` — is a hard problem.  A strict reader takes
        ``problems + tolerated``.
    """
    if not events:
        return ["no events (empty or fully torn telemetry stream)"], []
    problems: List[str] = []
    tolerated: List[str] = []
    last_seq = None
    last_t = 0.0
    in_session = False
    for index, event in enumerate(events):
        event_problems = validate_event(event, lineno=0)
        hard = [p for p in event_problems if "unknown event type" not in p]
        soft = [p for p in event_problems if "unknown event type" in p]
        tolerated.extend(f"event {index}: {p}" for p in soft)
        if hard:
            problems.extend(f"event {index}: {p}" for p in hard)
            continue
        if event["type"] == "telemetry_start":
            if event["seq"] != 0:
                problems.append(f"event {index}: session header has seq "
                                f"{event['seq']}, expected 0")
            last_seq = event["seq"]
            last_t = event["t_ms"]
            in_session = True
            continue
        if not in_session:
            problems.append(f"event {index}: {event['type']!r} before any "
                            "telemetry_start header")
            in_session = True  # report the structural problem only once
        if last_seq is not None and event["seq"] <= last_seq:
            tolerated.append(f"event {index}: seq {event['seq']} does not "
                             f"increase past {last_seq}")
        if event["t_ms"] < last_t:
            problems.append(f"event {index}: t_ms {event['t_ms']} goes "
                            f"backwards (previous {last_t})")
        last_seq = event["seq"]
        last_t = event["t_ms"]
    return problems, tolerated
