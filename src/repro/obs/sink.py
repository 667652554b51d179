"""Telemetry sinks: where emitted events go (or cheaply don't).

Three sinks cover every use:

* :class:`NullSink` — the default.  ``enabled`` is ``False``, so the
  instrumented runners skip event construction entirely; the disabled
  path costs one attribute read per *window* (never per frame or per
  injection), which is what keeps telemetry off the hot loops' perf
  budget (gated at <2% by ``tools/bench_compare.py``).
* :class:`MemorySink` — collects event dicts in a list; used by tests
  and by ``benchmarks/profile_hotspots.py`` to render span trees
  without touching the filesystem.
* :class:`JsonlSink` — a :mod:`repro.journal` appender: each event is
  one canonical JSON line written straight through to the OS (flushed,
  not fsynced), so a killed writer leaves at most one torn trailing
  line, which the next sink truncates on open.

The reader side lives here too: :func:`scan_telemetry` and
:func:`read_telemetry`, the journal scan with the session header as its
boundary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.errors import ObsError
from repro.journal import Appender, canonical, scan

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NULL_SINK",
    "NullSink",
    "TelemetrySink",
    "read_telemetry",
    "scan_telemetry",
]


class TelemetrySink:
    """Interface every sink implements.

    Attributes:
        enabled: ``False`` only on :class:`NullSink`; the runners guard
            all event construction behind it.
    """

    enabled: bool = True

    def emit(self, event: Dict[str, Any]) -> None:
        """Persist one event dict (already schema-shaped)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""


class NullSink(TelemetrySink):
    """The disabled sink: drops everything, flags itself off."""

    enabled = False

    def emit(self, event: Dict[str, Any]) -> None:
        """Drop the event."""


#: Shared disabled sink — the default for uninstrumented runs.
NULL_SINK = NullSink()


class MemorySink(TelemetrySink):
    """Collects events in memory (tests, in-process span rendering).

    Attributes:
        events: every emitted event dict, in emission order.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Append the event to :attr:`events`."""
        self.events.append(event)


class JsonlSink(TelemetrySink):
    """Append-only JSONL writer for ``--telemetry PATH``.

    Appends so a resume session lands after the interrupted one; a torn
    trailing line a killed writer left is truncated first (the
    :mod:`repro.journal` repair rule).  Every event is written as one
    canonical JSON line straight through to the OS, so an external tail
    sees events as they happen and a kill loses at most the line being
    written.

    Raises:
        ObsError: when the path cannot be opened or written.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._log = Appender(path, error=ObsError, what="telemetry",
                             durable=False)
        self._closed = False

    @property
    def path(self) -> Path:
        """The file this sink appends to."""
        return self._log.path

    def emit(self, event: Dict[str, Any]) -> None:
        """Write one event line."""
        if not self._closed:
            self._log.write(canonical(event))

    def close(self) -> None:
        """Close the file; further emits are dropped."""
        if not self._closed:
            self._closed = True
            try:
                self._log.close()
            except OSError:
                pass


def scan_telemetry(path: Union[str, Path]
                   ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Read a telemetry file, reporting where torn lines were skipped.

    The :func:`repro.journal.scan` rules, with a session header
    (``telemetry_start``) as the boundary: a torn line is skipped as the
    file's last line (``tear: "file"``) or right before the header a
    resume appended (``tear: "session"``); anywhere else it raises.
    No schema validation happens here — pass the events to
    :func:`repro.obs.events.validate_events` (or ``repro obs validate``).

    Returns:
        ``(events, tears)`` — one event dict per surviving line, plus
        one ``{"line": lineno, "tear": "file" | "session"}`` per skipped
        torn line.

    Raises:
        ObsError: when the file cannot be read, or a line is corrupt in
            the middle of a session.
    """
    if not Path(path).is_file():
        raise ObsError(f"cannot read telemetry file {str(path)!r}: "
                       "no such file")
    return scan(path, error=ObsError, what="telemetry",
                boundary=lambda event: event.get("type") == "telemetry_start")


def read_telemetry(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The events of :func:`scan_telemetry`, without the tears.

    Raises:
        ObsError: as :func:`scan_telemetry`.
    """
    return scan_telemetry(path)[0]
