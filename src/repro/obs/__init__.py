"""Observability for long-running workloads: events, spans, metrics.

``repro.obs`` is the telemetry plane of the repository — the one place
allowed to read a clock.  It provides:

* a **structured event log** — typed lifecycle events appended as
  ``repro-telemetry/v1`` JSONL (:mod:`repro.obs.events`,
  :mod:`repro.obs.sink`);
* **tracing spans** — nested phase timers emitted into the same stream
  and rebuilt into a trace tree by ``repro obs report``
  (:mod:`repro.obs.spans`, :mod:`repro.obs.report`);
* a **metrics registry** — O(1) counters/gauges/histograms snapshotted
  on a heartbeat (:mod:`repro.obs.metrics`);
* **live progress** — the ``--progress`` stderr ticker
  (:mod:`repro.obs.progress`);
* shared **cProfile wiring** for the profiling entry points
  (:mod:`repro.obs.profiling`);
* **per-worker capture** — pooled shard/job/device workers log to
  sidecar files merged back deterministically after the pool drains
  (:mod:`repro.obs.worker`);
* the **analysis plane** — Chrome-trace/flamegraph/CSV export
  (:mod:`repro.obs.export`) and statistically gated cross-run span
  diffing (:mod:`repro.obs.diff`), both reading telemetry files only.

Everything hangs off one facade, :class:`~repro.obs.session.Telemetry`,
which the campaign/stream/platform runners and the engine accept as an
optional argument.  Telemetry is strictly digest-neutral: it observes
execution and never feeds back into it, so every report is bit-identical
with telemetry on, off, or interrupted (see ``docs/OBSERVABILITY.md``
for the contract and ``tests/obs/`` for the proof).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.diff": ("OBS_DIFF_SCHEMA", "diff_events", "render_diff"),
    "repro.obs.events": (
        "EVENT_TYPES", "TELEMETRY_SCHEMA", "classify_events", "validate_event",
    ),
    "repro.obs.export": (
        "heartbeat_csv", "render_chrome_trace", "to_chrome_trace", "to_folded",
    ),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.profiling": ("profiled",),
    "repro.obs.progress": ("ProgressTicker", "render_progress"),
    "repro.obs.report": (
        "OBS_REPORT_SCHEMA", "build_spans", "render_report", "summarize",
    ),
    "repro.obs.session": (
        "DEFAULT_HEARTBEAT_S", "NULL_TELEMETRY", "Telemetry",
    ),
    "repro.obs.sink": (
        "NULL_SINK", "JsonlSink", "MemorySink", "NullSink", "TelemetrySink",
        "read_telemetry", "scan_telemetry",
    ),
    "repro.obs.spans": ("Span", "Tracer"),
    "repro.obs.worker": (
        "close_worker_session", "merge_sidecars", "sidecar_dir",
        "sidecar_path", "worker_session",
    ),
})
