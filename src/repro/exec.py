"""The execution core: the one way work runs on a process pool.

Campaign shards, engine batches, stream frame jobs and predraw chunks,
and platform devices all run through :func:`map_tasks`, which owns what
they share: the in-process/pooled choice and pool size, task- or
completion-ordered results, per-task worker-sidecar telemetry
(:mod:`repro.obs.worker`) merged in key order, ``worker_error`` events,
the typed :class:`~repro.errors.PoolError` for a dead worker, and
cancelling queued tasks on failure.  Task functions are deterministic,
so ``workers`` only changes the wall clock, never a result (see
``docs/ARCHITECTURE.md``, "Execution core").
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Tuple, Type, TypeVar

from repro.errors import PoolError
from repro.obs.session import NULL_TELEMETRY, Telemetry

__all__ = ["map_tasks"]

T = TypeVar("T")
R = TypeVar("R")


def _run_pooled(job):
    """Pool trampoline: run ``(fn, task, sidecar)`` under its own session."""
    from repro.obs.worker import close_worker_session, worker_session

    fn, task, sidecar = job
    telemetry = worker_session(sidecar)
    try:
        return fn(task, telemetry)
    finally:
        close_worker_session(telemetry)


def _checked(telemetry: Telemetry, key: str, result: Callable[[], R], *,
             broken: Tuple[Type[BaseException], ...] = ()) -> R:
    """Fetch one task's result, reporting its failure and typing a
    ``broken`` pool's as :class:`~repro.errors.PoolError`."""
    try:
        return result()
    except Exception as exc:
        telemetry.emit("worker_error", key=key, error=repr(exc))
        if isinstance(exc, broken):
            raise PoolError(
                f"a pool worker process died while running {key} — "
                "completed work is kept; resume or re-run to finish"
            ) from exc
        raise


def map_tasks(fn: Callable[[T, Telemetry], R], tasks: Sequence[T], *,
              workers: int, keys: Sequence[str],
              telemetry: Optional[Telemetry] = None,
              ordered: bool = True) -> Iterator[R]:
    """Yield ``fn(task, telemetry)`` for every task, in-process or pooled.

    In-process, with the caller's session, when ``workers == 1`` or there
    is at most one task; else on ``min(workers, len(tasks))`` processes,
    each task under its own sidecar session.  Ordered results come from
    ``pool.map`` (chunksize ``ceil(n / (pool * 4))``), unordered ones as
    they complete, so a consumer persisting each loses only the tasks in
    flight when interrupted.

    Args:
        fn: module-level function (pickled by reference).
        tasks: picklable task values.
        workers: process count (``>= 1``; callers validate it).
        keys: one stable, unique key per task, naming its sidecar and its
            ``worker_error`` / :class:`~repro.errors.PoolError`.
        telemetry: the caller's session (``None`` for none).
        ordered: yield in task order rather than completion order.

    Raises:
        PoolError: when a pool worker process died mid-task.
    """
    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    if workers == 1 or len(tasks) <= 1:
        for task, key in zip(tasks, keys):
            yield _checked(tm, key, partial(fn, task, tm))
        return
    # the pool stack loads here only, in the parent, so forked workers
    # inherit it instead of importing it
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    from repro.obs.worker import merge_sidecars, sidecar_dir, sidecar_path

    broken = (BrokenProcessPool,)
    pool_size = min(workers, len(tasks))
    wdir = sidecar_dir(tm) if tm.sink.enabled else None
    jobs = [(fn, task, sidecar_path(wdir, key) if wdir is not None else None)
            for task, key in zip(tasks, keys)]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        try:
            if ordered:
                chunksize = max(1, math.ceil(len(jobs) / (pool_size * 4)))
                results = pool.map(_run_pooled, jobs, chunksize=chunksize)
                for key in keys:
                    yield _checked(tm, key, results.__next__, broken=broken)
            else:
                futures = {pool.submit(_run_pooled, job): key
                           for job, key in zip(jobs, keys)}
                for future in as_completed(futures):
                    yield _checked(tm, futures[future], future.result,
                                  broken=broken)
        except BaseException:
            # a failure, Ctrl-C or an abandoned iterator: drop the queued
            # tasks instead of running them all before the error surfaces
            pool.shutdown(cancel_futures=True)
            raise
    if wdir is not None:
        merge_sidecars(tm, wdir, keys)
