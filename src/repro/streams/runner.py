"""The virtual-time stream engine: open-loop frame traffic on one GPU.

:func:`run_stream` turns a :class:`~repro.api.stream.StreamSpec` into a
:class:`~repro.streams.report.StreamReport` by composing three stages:

1. **job resolution** (:mod:`repro.streams.jobs`) — every distinct frame
   job is simulated redundantly once on the virtual-time
   :class:`~repro.gpu.simulator.GPUSimulator`; its makespan is the
   frame's service time, its clean trace the fault-overlay substrate.
   This is the only expensive stage and the only parallel one.
2. **queueing recurrence** — frames flow through a single-server bounded
   FIFO in arrival order: an arrival that finds the queue full is
   *dropped* (backpressure); an admitted frame starts when the server
   frees up and completes one service time later (plus one full
   re-execution per detected fault).  The recurrence is O(1) per frame
   and O(queue depth) memory, so million-frame soaks stream through
   without materialising anything.
3. **online analytics** (:mod:`repro.streams.analytics`) — latency and
   wait moments, P² quantile estimates, deadline/drop counters and
   tumbling throughput/utilisation windows, all folded frame by frame.

Determinism contract: the report is a pure function of ``(spec, seed)``.
Worker counts only parallelise stage 1 (whose results are deterministic
simulations) and, for long streams, the *precomputation* of stage 2's
per-frame substream values (arrival times and fault decision draws —
indexed pure functions of ``(seed, frame)``); ``chunk_frames`` only
batches the arrival generator of stage 2 (which always folds frames in
index order).  ``StreamReport.digest()`` is therefore bit-identical
across any worker/chunk configuration — proven by
``tests/streams/test_stream_runner.py`` and measured at soak scale by
``benchmarks/bench_streams.py``.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from itertools import islice
from typing import (TYPE_CHECKING, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

# the job layer (and the simulation stack it imports) first: the import
# order repro.campaigns.runner documents
from repro.streams.jobs import JobProfile, resolve_jobs
from repro.api.stats import RepeatSpec
from repro.api.stream import ArrivalSpec, StreamSpec
from repro.errors import StatsError, StreamError
from repro.exec import map_tasks
from repro.faults.outcomes import FaultOutcome
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.streams.analytics import StreamAccumulator
from repro.streams.arrivals import (
    arrival_chunk,
    frame_substream,
    iter_arrivals,
    materialize_arrivals,
    substream_factory,
)
from repro.streams.report import (
    STREAM_RATE_METRICS,
    StreamReport,
    quantile_key,
)

if TYPE_CHECKING:
    from repro.stats.intervals import RateEstimate
    from repro.stats.repeater import RepeatResult

__all__ = ["repeat_stream", "run_stream", "DEFAULT_CHUNK_FRAMES"]

#: Default frame-loop batch size (purely mechanical; see the module
#: docstring's determinism contract).
DEFAULT_CHUNK_FRAMES = 65536

#: Minimum stream length before ``workers > 1`` fans the per-frame
#: substream precomputation (arrival times, fault decision draws) out to
#: a process pool.  Below this, pool start-up costs more than the
#: SHA-256 + Mersenne Twister reseeds it would parallelise.
_PREDRAW_MIN_FRAMES = 16384

#: Frame-window size used when telemetry is enabled: arrival batches are
#: mechanically re-chunked to this size so ``frame_window`` events and
#: heartbeats land at a useful cadence on long soaks.  Chunking never
#: changes the report (see the module docstring), so telemetry stays
#: digest-neutral.
_TELEMETRY_WINDOW_FRAMES = 8192


def _rebatched(source: Iterable[List[float]],
               size: int) -> Iterator[List[float]]:
    """Re-chunk arrival batches into windows of at most ``size`` frames."""
    for batch in source:
        if len(batch) <= size:
            yield batch
            continue
        for lo in range(0, len(batch), size):
            yield batch[lo:lo + size]


def _predraw_chunk(task: Tuple[str, ArrivalSpec, int, int, int],
                   telemetry: Telemetry) -> List[float]:
    """Pool task ``(kind, arrival, seed, lo, hi)``: frames ``[lo, hi)``'s values.

    An ``"arrival"`` chunk is :func:`~repro.streams.arrivals.arrival_chunk`;
    a ``"fault"`` chunk holds each frame's first fault-substream uniform,
    so ``uniforms[i] < probability`` is exactly the fault-injection
    decision the frame loop would have drawn inline for frame ``lo + i``
    (substreams are indexed per frame, so precomputation cannot shift any
    other draw).
    """
    kind, arrival, seed, lo, hi = task
    if kind == "arrival":
        return arrival_chunk(arrival, seed, lo, hi)
    sub = substream_factory(seed, "fault")
    return [sub(index).random() for index in range(lo, hi)]


def _arrival_batches(spec: StreamSpec,
                     chunk_frames: int) -> Iterator[List[float]]:
    """The stream's arrivals in mechanical batches of ``chunk_frames``."""
    arrivals = iter_arrivals(spec.arrival, spec.seed)
    remaining = spec.frames
    while remaining:
        batch = list(islice(arrivals, min(chunk_frames, remaining)))
        remaining -= len(batch)
        yield batch


def run_stream(spec: StreamSpec, *, workers: int = 1,
               chunk_frames: int = DEFAULT_CHUNK_FRAMES,
               service_offset_ms: float = 0.0,
               validate: bool = True,
               telemetry: Optional[Telemetry] = None) -> StreamReport:
    """Execute one open-loop frame stream and fold its online report.

    Args:
        spec: the declarative stream.
        workers: process count for the distinct-job simulations and,
            on streams of at least ``_PREDRAW_MIN_FRAMES`` frames, for
            precomputing the per-frame substream values (``1`` runs
            everything in-process); never changes the report.
        chunk_frames: frame-loop batch size (arrival generation is
            batched in chunks of this many frames); never changes the
            report.
        service_offset_ms: fixed extra service time every frame pays on
            top of its simulated makespan (re-executions pay it again).
            :mod:`repro.platform` uses it to charge each device's COTS
            protocol overhead; the ``0.0`` default leaves single-stream
            reports untouched.
        validate: forward the simulator's trace-validation switch.
        telemetry: optional :class:`~repro.obs.session.Telemetry`
            session receiving lifecycle events, spans, ``frame_window``
            summaries and heartbeats; never changes the report.

    Returns:
        The aggregate :class:`~repro.streams.report.StreamReport` —
        bit-identical (``report.digest()``) for any ``workers`` /
        ``chunk_frames`` configuration.

    Raises:
        StreamError: for invalid worker/chunk counts, a negative service
            offset, or workloads that resolve to no kernels.
    """
    if chunk_frames < 1:
        raise StreamError("chunk_frames must be >= 1")
    if service_offset_ms < 0:
        raise StreamError("service_offset_ms cannot be negative")
    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    with tm.span("resolve_jobs", workers=workers):
        profiles = resolve_jobs(spec, workers=workers, validate=validate,
                                telemetry=tm if tm.enabled else None)
    policy = profiles[0].run.sim.scheduler_name
    tm.emit("run_start", kind="stream", label=spec.label,
            spec_hash=spec.config_hash, frames=spec.frames, policy=policy)
    deadline = spec.effective_deadline_ms
    faults = spec.faults if (
        spec.faults is not None and spec.faults.probability > 0.0
    ) else None

    acc = StreamAccumulator(spec.quantiles, spec.effective_window_ms)

    completed = dropped = deadline_misses = 0
    injected = masked = detected = sdc = re_executions = 0

    # single-server bounded FIFO: completion times of frames still in
    # the system (head = oldest); capacity = 1 in service + queue_depth
    in_system: Deque[float] = deque()
    capacity = spec.queue_depth + 1
    last_completion = 0.0
    last_arrival = 0.0
    service_sum = 0.0

    n_jobs = len(profiles)
    # hoisted per-frame invariants: the service/busy tables replace a
    # profile attribute chase + add per frame with one list probe, the
    # fault substream factory amortises the SHA-256 prefix, and `slot`
    # tracks `frame % n_jobs` incrementally
    services = [p.service_ms + service_offset_ms for p in profiles]
    busys = [p.busy_ms for p in profiles]
    fault_substream = (
        substream_factory(spec.seed, "fault") if faults is not None else None
    )
    fault_probability = faults.probability if faults is not None else 0.0

    def inject(rng, slot: int, frame: int,
               service: float, busy: float) -> Tuple[float, float]:
        # rare path (one call per injected fault): overlay one random
        # fault on the frame and account its outcome
        nonlocal injected, masked, detected, sdc, re_executions
        injected += 1
        profile = profiles[slot]
        fault = profile.campaign.random_fault(
            rng,
            transient_ccf=faults.transient_ccf,
            permanent_sm=faults.permanent_sm,
            seu=faults.seu,
            phase_quantum=faults.phase_quantum,
            fault_id=frame,
        )
        outcome = profile.campaign.classify(fault).outcome
        if outcome is FaultOutcome.DETECTED:
            detected += 1
            re_executions += 1
            service += services[slot]
            busy += busys[slot]
        elif outcome is FaultOutcome.SDC:
            sdc += 1
        else:
            masked += 1
        return service, busy

    # workers > 1: fan the pure per-frame substream work (arrival times,
    # fault decision uniforms) out to a process pool — frame i's draws
    # are an indexed pure function of (seed, i), so precomputation is
    # invisible to the report (the digest-equality tests prove it)
    fault_unis: Optional[List[float]] = None
    predraw = workers > 1 and spec.frames >= _PREDRAW_MIN_FRAMES and (
        spec.arrival.model != "periodic" or faults is not None
    )
    if predraw:
        step = -(-spec.frames // (workers * 4))  # ceil division
        bounds = [(lo, min(lo + step, spec.frames))
                  for lo in range(0, spec.frames, step)]
        kinds = ("arrival", "fault") if faults is not None else ("arrival",)
        parts = list(map_tasks(
            _predraw_chunk,
            [(kind, spec.arrival, spec.seed, lo, hi)
             for kind in kinds for lo, hi in bounds],
            workers=workers,
            keys=[f"{kind}-{i:03d}" for kind in kinds
                  for i in range(len(bounds))],
            telemetry=tm,
        ))
        arrival_source: Iterable[List[float]] = (
            materialize_arrivals(spec.arrival, parts[:len(bounds)]),
        )
        if faults is not None:
            fault_unis = [u for part in parts[len(bounds):] for u in part]
    else:
        arrival_source = _arrival_batches(spec, chunk_frames)

    if tm.enabled:
        # smaller mechanical windows so frame_window events and
        # heartbeats land at a useful cadence on long soaks
        arrival_source = _rebatched(
            arrival_source, min(chunk_frames, _TELEMETRY_WINDOW_FRAMES)
        )

    observe = acc.observe
    popleft = in_system.popleft
    enqueue = in_system.append
    frame = 0
    slot = 0
    frame_span = tm.span("frame_loop", frames=spec.frames)
    frame_span.__enter__()
    for batch in arrival_source:
        window_start = frame
        w_completed, w_dropped = completed, dropped
        w_misses, w_injected = deadline_misses, injected
        for arrival in batch:
            last_arrival = arrival
            while in_system and in_system[0] <= arrival:
                popleft()
            if len(in_system) >= capacity:
                dropped += 1
                frame += 1
                slot += 1
                if slot == n_jobs:
                    slot = 0
                continue

            service = services[slot]
            busy = busys[slot]
            if fault_unis is not None:
                if fault_unis[frame] < fault_probability:
                    rng = frame_substream(spec.seed, "fault", frame)
                    rng.random()  # replay the predrawn decision draw
                    service, busy = inject(rng, slot, frame, service, busy)
            elif fault_substream is not None:
                rng = fault_substream(frame)
                if rng.random() < fault_probability:
                    service, busy = inject(rng, slot, frame, service, busy)

            begin = max(arrival, last_completion)
            completion = begin + service
            last_completion = completion
            enqueue(completion)
            service_sum += service

            wait = begin - arrival
            latency = completion - arrival
            completed += 1
            if latency > deadline:
                deadline_misses += 1
            observe(latency, wait, completion, busy)
            frame += 1
            slot += 1
            if slot == n_jobs:
                slot = 0
        if tm.enabled:
            tm.metrics.add("frames", frame - window_start)
            # drops counter + queue-depth gauge surface backpressure in
            # `obs report` without parsing frame_window events
            tm.metrics.add("drops", dropped - w_dropped)
            tm.metrics.set_gauge("queue_depth", len(in_system))
            tm.metrics.observe("window_drops", dropped - w_dropped)
            tm.emit("frame_window", start=window_start, stop=frame,
                    completed=completed - w_completed,
                    dropped=dropped - w_dropped,
                    deadline_misses=deadline_misses - w_misses,
                    faults_injected=injected - w_injected)
            tm.beat("stream", frame, spec.frames,
                    rate_counter="frames", unit="frames/s")
    frame_span.__exit__(None, None, None)
    if tm.enabled:
        tm.beat("stream", frame, spec.frames,
                rate_counter="frames", unit="frames/s", force=True)

    elapsed = max(last_arrival, last_completion)
    with tm.span("fold"):
        latency_dict = acc.latency_summary()
        if completed:
            for estimator in acc.estimators:
                latency_dict[quantile_key(estimator.q)] = estimator.value
    report = StreamReport(
        label=spec.label,
        policy=policy,
        spec_hash=spec.config_hash,
        seed=spec.seed,
        frames=spec.frames,
        completed=completed,
        dropped=dropped,
        deadline_ms=deadline,
        deadline_misses=deadline_misses,
        faults_injected=injected,
        faults_masked=masked,
        faults_detected=detected,
        faults_sdc=sdc,
        re_executions=re_executions,
        latency=latency_dict,
        wait=acc.wait_summary(),
        service=_service_table(profiles),
        elapsed_ms=elapsed,
        throughput_fps=(completed / (elapsed / 1000.0)) if elapsed else 0.0,
        utilisation=min(1.0, service_sum / elapsed) if elapsed else 0.0,
        windows=acc.windows.summary(),
    )
    if tm.enabled:
        tm.emit("run_end", kind="stream", digest=report.digest(),
                completed=report.completed, dropped=report.dropped,
                elapsed_ms=report.elapsed_ms)
    return report


def _service_table(profiles: List[JobProfile]) -> Dict[str, float]:
    """Per-job service times keyed by workload label."""
    return {profile.label: profile.service_ms for profile in profiles}


# ----------------------------------------------------------------------
# repeat-until-confidence
# ----------------------------------------------------------------------
def _repeat_lengths(repeat: RepeatSpec) -> Iterator[int]:
    """Evaluation-point frame counts: geometric growth to the cap.

    ``batch, 2·batch, 4·batch, …`` clipped to ``max_total`` (which is
    always the last point).  Geometric growth keeps the total work of
    re-running the stream at every point within ~2× the final run.
    """
    frames = repeat.batch
    while frames < repeat.max_total:
        yield frames
        frames *= 2
    yield repeat.max_total


def repeat_stream(spec: StreamSpec, repeat: RepeatSpec, *,
                  workers: int = 1,
                  chunk_frames: int = DEFAULT_CHUNK_FRAMES,
                  validate: bool = True,
                  telemetry: Optional[Telemetry] = None) -> RepeatResult:
    """Extend a stream soak until the CI target on a rate metric is met.

    The stream counterpart of
    :func:`repro.campaigns.runner.repeat_campaign`: frame counts grow
    geometrically from ``repeat.batch`` to the ``repeat.max_total``
    budget cap, re-running the stream at each evaluation point.  Every
    per-frame draw (arrival, fault decision) is an indexed pure function
    of ``(seed, frame)``, so an ``n``-frame run is a strict prefix of a
    ``2n``-frame run — extending the soak never changes frames already
    streamed, and the evaluation trajectory is a pure function of
    ``(spec, repeat)``, independent of ``workers`` / ``chunk_frames``.

    The stopping rule is evaluated on the chosen metric's
    :meth:`~repro.streams.report.StreamReport.rate_interval`; evaluation
    points where the metric has no trials yet (e.g. ``fault_sdc``
    before any fault was injected) do not satisfy the target and are
    absent from the history.

    Args:
        spec: the declarative stream; its ``frames`` field is ignored in
            favour of the repeat schedule.
        repeat: the stopping rule; ``metric`` must be one of
            :data:`~repro.streams.report.STREAM_RATE_METRICS`.
        workers: forwarded to :func:`run_stream` (never changes the
            result).
        chunk_frames: forwarded to :func:`run_stream` (never changes the
            result).
        validate: forward the simulator's trace-validation switch.
        telemetry: optional :class:`~repro.obs.session.Telemetry`
            session; each evaluation point runs as its own
            instrumented stream under a ``batch`` span.

    Returns:
        A :class:`~repro.stats.repeater.RepeatResult` whose ``report``
        is the :class:`~repro.streams.report.StreamReport` of the
        stopping point; ``converged`` is ``False`` when the budget cap
        was exhausted first.

    Raises:
        StreamError: on an unknown repeat metric or invalid stream
            parameters.
        StatsError: when no evaluation point up to the budget cap yields
            a well-defined estimate.
    """
    if repeat.metric not in STREAM_RATE_METRICS:
        raise StreamError(
            f"unknown stream repeat metric {repeat.metric!r}; known: "
            + ", ".join(STREAM_RATE_METRICS)
        )
    from repro.stats.repeater import (
        STOP_BUDGET,
        STOP_TARGET,
        RepeatResult,
        target_met,
    )

    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    tm.emit("run_start", kind="stream-repeat", label=spec.label,
            spec_hash=spec.config_hash, metric=repeat.metric,
            budget=repeat.max_total)
    history: List[RateEstimate] = []
    report: Optional[StreamReport] = None
    batches = 0
    converged = False
    last_stats_error: Optional[StatsError] = None
    for frames in _repeat_lengths(repeat):
        batches += 1
        with tm.span("batch", frames=frames):
            report = run_stream(
                dataclasses.replace(spec, frames=frames),
                workers=workers, chunk_frames=chunk_frames,
                validate=validate, telemetry=tm,
            )
        try:
            estimate = report.rate_interval(
                repeat.metric, confidence=repeat.confidence,
                method=repeat.interval,
            )
        except StatsError as exc:
            last_stats_error = exc
            continue
        history.append(estimate)
        if target_met(estimate,
                      relative_half_width=repeat.relative_half_width,
                      half_width=repeat.half_width):
            converged = True
            break
    if not history or report is None:
        raise StatsError(
            f"no evaluation point up to {repeat.max_total} frames yields "
            f"a well-defined {repeat.metric!r} estimate"
            + (f": {last_stats_error}" if last_stats_error else "")
        )
    estimate = history[-1]
    error = None
    if not converged:
        target = (f"relative half-width <= {repeat.relative_half_width}"
                  if repeat.relative_half_width is not None
                  else f"half-width <= {repeat.half_width}")
        error = (
            f"budget of {repeat.max_total} frames exhausted with the "
            f"{repeat.metric!r} interval at {estimate.describe()} — "
            f"target {target} not met"
        )
    tm.emit("run_end", kind="stream-repeat", converged=converged,
            batches=batches, total=report.frames)
    return RepeatResult(
        metric=repeat.metric,
        converged=converged,
        stop_reason=STOP_TARGET if converged else STOP_BUDGET,
        batches=batches,
        total=report.frames,
        estimate=estimate,
        report=report,
        history=tuple(history),
        error=error,
    )
