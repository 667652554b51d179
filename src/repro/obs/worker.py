"""Per-worker telemetry capture for process pools, merged after the run.

Telemetry sinks hold open file handles and are not picklable, so pooled
workers log to sidecar files instead; :func:`repro.exec.map_tasks` wires
them up:

* one sidecar path per task next to the session log
  (``t.jsonl.workers/worker-<key>.jsonl``) travels with the task;
* the worker opens its own :class:`~repro.obs.session.Telemetry` session
  there (best-effort: an I/O failure silently disables worker capture —
  instrumentation must never fail a run);
* after the pool drains, :func:`merge_sidecars` folds the sidecars back
  into the orchestrator session **deterministically** — sorted keys,
  then each file's own ``seq`` order — so the merged stream is a pure
  function of the work, not of pool scheduling.

Merged events keep the four-key ``repro-telemetry/v1`` shape — the
orchestrator re-emits them with fresh ``seq``/``t_ms`` and stashes the
worker-local values as ``data.worker_seq`` / ``data.worker_t_ms``.
Span ids are rewritten to ``"<key>:<id>"`` strings (collision-free
against the orchestrator's integer ids) and worker root spans are
reparented under the orchestrator's currently open span, so a pooled
campaign renders ``execute → shard → baseline/classify`` exactly like
an in-process one.  Sidecar files are torn-line-tolerant like every
telemetry stream: a worker killed mid-write loses at most one line and
the merge keeps everything before the tear.

Digest neutrality is untouched: sidecars are written and read only on
the instrumented path, and nothing downstream of a report ever looks
at them (``tests/obs/test_digest_neutrality.py`` proves on/off/torn).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.errors import ObsError
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.obs.sink import JsonlSink, read_telemetry

__all__ = [
    "close_worker_session",
    "merge_sidecars",
    "sidecar_dir",
    "sidecar_path",
    "worker_session",
]

_KEY_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def sidecar_dir(telemetry: Telemetry) -> Optional[Path]:
    """The worker-sidecar directory for a session, or ``None``.

    Sidecars only exist for file-backed sessions: the directory sits
    next to the event log (``<log>.workers/``) so the two travel
    together.  Returns ``None`` — disabling worker capture — for
    memory/null sinks or when the directory cannot be created.

    Args:
        telemetry: the orchestrator's session.
    """
    sink = telemetry.sink
    if not isinstance(sink, JsonlSink):
        return None
    directory = sink.path.with_name(sink.path.name + ".workers")
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return directory


def sidecar_path(directory: Union[str, Path], key: str) -> str:
    """The sidecar file for worker ``key`` (filesystem-safe name).

    Args:
        directory: the :func:`sidecar_dir` result.
        key: stable work-unit key (e.g. ``"shard-00003"``); characters
            outside ``[A-Za-z0-9._-]`` are replaced with ``_``.
    """
    safe = _KEY_UNSAFE.sub("_", str(key))
    return str(Path(directory) / f"worker-{safe}.jsonl")


def worker_session(path: Optional[str]) -> Telemetry:
    """Open the worker-side telemetry session writing to ``path``.

    Called inside the pooled worker process.  A fresh session replaces
    any previous attempt's file (a retried shard must not double-count
    its events).  Best-effort by design: for a ``None`` path or any
    I/O failure the shared :data:`~repro.obs.session.NULL_TELEMETRY`
    comes back and the worker runs uninstrumented — capture problems
    never fail the run.

    Args:
        path: the sidecar file from :func:`sidecar_path`, or ``None``.
    """
    if not path:
        return NULL_TELEMETRY
    try:
        Path(path).unlink(missing_ok=True)
        return Telemetry(JsonlSink(path))
    except (ObsError, OSError):
        return NULL_TELEMETRY


def close_worker_session(telemetry: Telemetry) -> None:
    """Close a :func:`worker_session` result (never the shared null)."""
    if telemetry is not NULL_TELEMETRY:
        telemetry.close()


def merge_sidecars(telemetry: Telemetry, directory: Union[str, Path],
                   keys: Iterable[str]) -> int:
    """Fold worker sidecar files into the orchestrator session.

    Deterministic merge order: sorted worker keys, then each file's own
    event order — i.e. ``(worker, seq)`` — independent of pool
    scheduling.  Session bookkeeping events (``telemetry_start`` /
    ``telemetry_end``) are dropped (the orchestrator session already
    has its own); everything else is re-emitted with the worker key,
    worker-local ``seq``/``t_ms``, and remapped span ids attached to
    ``data``.  Unreadable or fully torn sidecars are skipped silently —
    the orchestrator's own events still describe the run.  Merged files
    are deleted; the directory too once empty.

    Args:
        telemetry: the orchestrator's (sink-enabled) session.
        directory: the :func:`sidecar_dir` result.
        keys: the worker keys that were dispatched.

    Returns:
        The number of merged events.
    """
    if not telemetry.sink.enabled:
        return 0
    parent = telemetry.current_span
    merged = 0
    for key in sorted(str(k) for k in keys):
        path = Path(sidecar_path(directory, key))
        try:
            events = read_telemetry(path)
        except ObsError:
            continue  # absent, unreadable, or mid-file corruption
        for event in events:
            etype = event.get("type")
            if etype in ("telemetry_start", "telemetry_end"):
                continue
            if not isinstance(etype, str):
                continue
            data = dict(event.get("data", {}))
            if isinstance(data.get("span"), int):
                data["span"] = f"{key}:{data['span']}"
            if isinstance(data.get("parent"), int):
                data["parent"] = f"{key}:{data['parent']}"
            elif etype == "span_start" and data.get("parent") is None:
                data["parent"] = parent
            data["worker"] = key
            data["worker_seq"] = event.get("seq")
            data["worker_t_ms"] = event.get("t_ms")
            telemetry.emit(etype, **data)
            merged += 1
        try:
            path.unlink()
        except OSError:
            pass
    try:
        Path(directory).rmdir()
    except OSError:
        pass  # leftover sidecars (e.g. an unreadable one) stay put
    return merged
