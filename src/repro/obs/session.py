"""The :class:`Telemetry` session — the one object runners are handed.

A session bundles a sink, the monotonic clock, a tracer, a metrics
registry, the heartbeat schedule and an optional progress ticker behind
one facade::

    telemetry = Telemetry.create(path="t.jsonl", progress=True)
    report = run_campaign(spec, telemetry=telemetry)
    telemetry.close()

Runners receive ``telemetry=None`` by default and substitute
:data:`NULL_TELEMETRY`, whose ``enabled`` flag is ``False``: every
emit/beat call returns immediately and :meth:`Telemetry.span` hands out
a shared no-op context manager, so the uninstrumented path costs one
boolean check per window — never per frame (the <2% overhead budget is
gated by ``repro compare`` on the BENCH files).

This module (with the rest of :mod:`repro.obs`) is the repository's
only wall-clock quarantine zone: ``repro-lint.toml`` scopes RL002 to
permit :func:`time.monotonic` here and nowhere else.  Clock values flow
*out* as telemetry; nothing downstream of a report digest ever reads
them back.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, TextIO, Union

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import NULL_SINK, TelemetrySink
from repro.obs.spans import Tracer

if TYPE_CHECKING:
    from repro.obs.progress import ProgressTicker

__all__ = ["DEFAULT_HEARTBEAT_S", "NULL_TELEMETRY", "Telemetry"]

#: Default seconds between heartbeat events (``--heartbeat`` override).
DEFAULT_HEARTBEAT_S = 1.0


class Telemetry:
    """One observability session: sink + clock + tracer + metrics.

    Args:
        sink: event destination; ``None`` means the shared
            :data:`~repro.obs.sink.NULL_SINK` (telemetry off).
        progress: optional :class:`~repro.obs.progress.ProgressTicker`
            painting a live status line on :meth:`beat`.
        heartbeat_s: minimum seconds between ``heartbeat`` events; the
            first and final beats always emit.

    Attributes:
        sink: the event sink.
        metrics: the session's :class:`~repro.obs.metrics.MetricsRegistry`.
        progress: the ticker, or ``None``.

    Raises:
        ObsError: for a non-positive ``heartbeat_s``.
    """

    def __init__(self, sink: Optional[TelemetrySink] = None, *,
                 progress: Optional[ProgressTicker] = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if heartbeat_s <= 0:
            raise ObsError(
                f"heartbeat interval must be positive, got {heartbeat_s!r}"
            )
        self.sink = sink if sink is not None else NULL_SINK
        self.progress = progress
        self.metrics = MetricsRegistry()
        self._heartbeat_s = heartbeat_s
        self._seq = 0
        self._t0 = time.monotonic() if self.enabled else 0.0
        self._last_beat_ms: Optional[float] = None
        self._beat_counters: Dict[str, float] = {}
        self._closed = False
        self._tracer = Tracer(self.emit, self._now_ms,
                              enabled=self.sink.enabled)
        if self.sink.enabled:
            from repro import __version__
            from repro.obs.events import TELEMETRY_SCHEMA

            self.emit("telemetry_start", schema=TELEMETRY_SCHEMA,
                      version=__version__)

    @classmethod
    def create(cls, *, path: Union[str, Path, None] = None,
               progress: bool = False,
               heartbeat_s: float = DEFAULT_HEARTBEAT_S,
               stream: Optional[TextIO] = None) -> "Telemetry":
        """Build a session from CLI-flag-shaped arguments.

        Args:
            path: ``--telemetry`` file (``None`` for no event log).
            progress: ``--progress`` (stderr ticker).
            heartbeat_s: ``--heartbeat`` interval in seconds.
            stream: ticker stream override (tests; default stderr).

        Raises:
            ObsError: for an unopenable path or bad heartbeat interval.
        """
        from repro.obs.progress import ProgressTicker
        from repro.obs.sink import JsonlSink

        sink: Optional[TelemetrySink] = (
            JsonlSink(path) if path is not None else None
        )
        ticker = ProgressTicker(stream) if progress else None
        return cls(sink, progress=ticker, heartbeat_s=heartbeat_s)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when any observer (sink or ticker) is attached."""
        return self.sink.enabled or self.progress is not None

    def _now_ms(self) -> float:
        """Milliseconds since the session epoch (monotonic clock)."""
        return (time.monotonic() - self._t0) * 1000.0

    def emit(self, event_type: str, **data: Any) -> None:
        """Emit one event to the sink (no-op when the sink is off)."""
        if not self.sink.enabled or self._closed:
            return
        event = {
            "type": event_type,
            "seq": self._seq,
            "t_ms": round(self._now_ms(), 3),
            "data": data,
        }
        self._seq += 1
        self.sink.emit(event)

    def span(self, name: str, **data: Any):
        """Open a tracing span (shared no-op when the sink is off)."""
        return self._tracer.span(name, **data)

    @property
    def current_span(self) -> Optional[int]:
        """Id of the innermost open span (``None`` at the root).

        Worker-sidecar merging (:mod:`repro.obs.worker`) reparents
        merged root spans under this id so pooled shard/device spans
        nest inside the orchestrator phase that dispatched them.
        """
        return self._tracer.current

    # ------------------------------------------------------------------
    def beat(self, label: str, done: int, total: int, *,
             rate_counter: str = "", unit: str = "items/s",
             force: bool = False) -> None:
        """Progress pulse: tick the ticker, maybe emit a heartbeat.

        Cheap enough to call once per shard/window: when neither a sink
        nor a ticker is attached it returns immediately; otherwise the
        heartbeat throttle keeps event volume bounded regardless of how
        often the runner calls it (the first and ``force``-d beats
        always emit, so even sub-second runs carry one heartbeat).

        Args:
            label: short phase label for the status line.
            done: completed work units.
            total: planned work units (0 when unknown).
            rate_counter: metrics counter to derive the displayed
                rate from (delta per second between beats).
            unit: unit label for that rate.
            force: bypass both throttles (used for the final beat).
        """
        if not self.enabled or self._closed:
            return
        now_ms = self._now_ms()
        rate = 0.0
        if rate_counter:
            value = self.metrics.counter(rate_counter)
            previous = self._beat_counters.get(rate_counter)
            if previous is not None and now_ms > 0:
                elapsed_ms = now_ms - (self._last_beat_ms or 0.0)
                if elapsed_ms > 0:
                    rate = (value - previous) / (elapsed_ms / 1000.0)
            elif now_ms > 0:
                rate = value / (now_ms / 1000.0)
        due = (force or self._last_beat_ms is None
               or now_ms - self._last_beat_ms >= self._heartbeat_s * 1000.0)
        if self.progress is not None:
            from repro.obs.progress import render_progress

            self.progress.update(
                render_progress(label, done, total, rate=rate, unit=unit),
                force=force,
            )
        if due and self.sink.enabled:
            data: Dict[str, Any] = {
                "label": label,
                "done": done,
                "total": total,
                "metrics": self.metrics.snapshot(),
            }
            if rate_counter:
                data["rates"] = {rate_counter: round(rate, 3)}
            self.emit("heartbeat", **data)
        if due:
            self._last_beat_ms = now_ms
            if rate_counter:
                self._beat_counters[rate_counter] = self.metrics.counter(
                    rate_counter
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the session: final header, sink flush, ticker newline."""
        if self._closed:
            return
        self.emit("telemetry_end", events=self._seq)
        self._closed = True
        self.sink.close()
        if self.progress is not None:
            self.progress.close()


#: Shared disabled session — what runners use for ``telemetry=None``.
NULL_TELEMETRY = Telemetry()
