"""The canonical stream outcome: :class:`StreamReport`.

A report is the *complete* observable outcome of one stream execution —
counters, online latency statistics, throughput/utilisation aggregates —
in plain data.  It deliberately contains **no per-frame records**: a
100-million-frame soak run and a 100-frame smoke test produce reports of
identical size.  Its JSON form comes from the spec codec
(:class:`~repro.api.spec.ReportCodec`): every key is a field of the same
name or a derived rate, a saved report loads only in that canonical
form, and :meth:`~repro.api.spec.ReportCodec.digest` hashes it.  The
determinism contract of :mod:`repro.streams` (see ``docs/STREAMS.md``)
is stated over that digest: same :class:`~repro.api.stream.StreamSpec`
+ seed ⇒ bit-identical digest, for any worker count or chunk size.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from repro.api.spec import Codec, ReportCodec
from repro.errors import StatsError, StreamError

if TYPE_CHECKING:
    from repro.stats.estimators import UniformRate
    from repro.stats.intervals import RateEstimate

__all__ = [
    "STREAM_RATE_METRICS",
    "StreamFaults",
    "StreamReport",
    "StreamWindows",
    "quantile_key",
    "safe_fraction",
    "stream_rate_rows",
]

#: Stream rates with a well-defined event/trial count pair, i.e. the
#: metrics :meth:`StreamReport.rate_interval` can put a confidence
#: interval on and ``repro compare`` tests (the keys of
#: :func:`stream_rate_rows`).
STREAM_RATE_METRICS = ("deadline_miss", "drop", "unsafe", "fault_sdc")


def quantile_key(q: float) -> str:
    """Canonical report key of one latency quantile (``0.99`` → ``"p99"``)."""
    return f"p{100.0 * q:.10g}"


def safe_fraction(frames: float, dropped: float, deadline_misses: float,
                  sdc: float) -> float:
    """Frames delivered correctly and on time, over ``frames``: drops,
    deadline misses and silent corruptions all subtract (0.0 without
    frames)."""
    if not frames:
        return 0.0
    unsafe = dropped + deadline_misses + sdc
    return max(0.0, (frames - unsafe) / frames)


def stream_rate_rows(*, frames: int, completed: int, dropped: int,
                     deadline_misses: int, sdc: int,
                     injected: int) -> Dict[str, Tuple[int, int]]:
    """``metric -> (events, trials)`` of the :data:`STREAM_RATE_METRICS`
    over one set of stream counters (unsafe frames capped at ``frames``)."""
    unsafe = min(frames, dropped + deadline_misses + sdc)
    return {"deadline_miss": (deadline_misses, completed),
            "drop": (dropped, frames),
            "unsafe": (unsafe, frames),
            "fault_sdc": (sdc, injected)}


@dataclass(frozen=True)
class StreamFaults(Codec):
    """Fault-overlay outcome counters (all zero without an overlay).

    Attributes:
        masked / detected / sdc: the outcomes of the faults drawn.
    """

    masked: int
    detected: int
    sdc: int

    derived_keys = ("injected", "re_executions")

    @property
    def injected(self) -> int:
        """Faults drawn: each has one outcome."""
        return self.masked + self.detected + self.sdc

    @property
    def re_executions(self) -> int:
        """Frames re-executed after a detected error (each adds one full
        service time to the frame's latency)."""
        return self.detected


@dataclass(frozen=True)
class StreamWindows(Codec):
    """Tumbling-window aggregates.

    The eight keys of
    :meth:`repro.streams.analytics.WindowedRates.summary`.
    """

    windows: float
    window_ms: float
    fps_min: float
    fps_mean: float
    fps_max: float
    util_min: float
    util_mean: float
    util_max: float


@dataclass(frozen=True)
class StreamReport(ReportCodec):
    """Aggregated outcome of one stream execution (O(1) size).

    Attributes:
        label: the stream's human-readable identity.
        policy: scheduler label of the frame jobs.
        spec_hash: :attr:`~repro.api.stream.StreamSpec.config_hash` of
            the executed spec (provenance).
        seed: master seed the stream ran with.
        frames: frames generated by the arrival process.
        completed: frames admitted and executed to completion.
        dropped: frames rejected by backpressure (queue full).
        deadline_ms: per-frame latency budget enforced.
        deadline_misses: completed frames whose latency exceeded the
            budget.
        faults: fault-overlay outcome counters.
        windows: tumbling-window aggregates.
        latency_ms: online latency statistics in milliseconds —
            ``count``, ``min``, ``max``, ``mean``, ``std`` plus one P²
            estimate per tracked quantile (keys from
            :func:`quantile_key`).
        wait_ms: same statistics for the queueing delay (arrival to
            service start).
        service_ms: per-job service profile, ``workload label ->
            service milliseconds``.
        elapsed_ms: stream makespan (last completion or last arrival,
            whichever is later).
        throughput_fps: completed frames per second of stream time.
        utilisation: server busy fraction (total service time over
            ``elapsed_ms``).
    """

    label: str
    policy: str
    spec_hash: str
    seed: int
    frames: int
    completed: int
    dropped: int
    deadline_ms: float
    deadline_misses: int
    faults: StreamFaults
    windows: StreamWindows
    latency_ms: Dict[str, float] = field(default_factory=dict)
    wait_ms: Dict[str, float] = field(default_factory=dict)
    service_ms: Dict[str, float] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    throughput_fps: float = 0.0
    utilisation: float = 0.0

    derived_keys = ("deadline_met", "miss_rate", "drop_rate", "safe_rate")
    load_error = StreamError

    # ------------------------------------------------------------------
    @property
    def deadline_met(self) -> int:
        """Completed frames that met their deadline."""
        return self.completed - self.deadline_misses

    @property
    def miss_rate(self) -> float:
        """Deadline misses over completed frames (0.0 when none ran)."""
        return (self.deadline_misses / self.completed
                if self.completed else 0.0)

    @property
    def drop_rate(self) -> float:
        """Dropped frames over generated frames."""
        return self.dropped / self.frames if self.frames else 0.0

    @property
    def safe_rate(self) -> float:
        """Frames delivered correctly and on time, over generated frames.

        The stream-level safety headline: drops, deadline misses and
        silent corruptions all subtract from it.
        """
        return safe_fraction(self.frames, self.dropped,
                             self.deadline_misses, self.faults.sdc)

    # perfbench's in-process replay reads these three counters
    faults_masked = property(lambda self: self.faults.masked)
    faults_detected = property(lambda self: self.faults.detected)
    faults_sdc = property(lambda self: self.faults.sdc)

    # ------------------------------------------------------------------
    # confidence intervals (on demand — never part of the canonical form)
    # ------------------------------------------------------------------
    def rate_rows(self) -> Dict[str, Tuple[int, int]]:
        """``metric -> (events, trials)`` of every stream rate (the rows
        ``repro compare`` tests)."""
        return stream_rate_rows(
            frames=self.frames, completed=self.completed,
            dropped=self.dropped, deadline_misses=self.deadline_misses,
            sdc=self.faults.sdc, injected=self.faults.injected)

    def rate_estimator(self, metric: str = "deadline_miss") -> "UniformRate":
        """Estimator of one stream rate (frames are i.i.d. trials).

        Raises:
            StreamError: on an unknown metric name.
            StatsError: when the metric has no trials yet (e.g.
                ``fault_sdc`` before any fault was injected).
        """
        from repro.stats.estimators import UniformRate

        rows = self.rate_rows()
        if metric not in rows:
            raise StreamError(f"unknown stream rate metric {metric!r}; "
                              f"known: {', '.join(STREAM_RATE_METRICS)}")
        events, trials = rows[metric]
        if trials < 1:
            raise StatsError(
                f"stream rate {metric!r} has no trials to estimate from"
            )
        return UniformRate(events, trials, metric=metric)

    def rate_interval(self, metric: str = "deadline_miss", *,
                      confidence: float = 0.95, method: str = "auto",
                      resamples: int = 1000, seed: int = 0) -> "RateEstimate":
        """Confidence interval on one stream rate.

        A pure function of the report's integer counters (and, for the
        bootstrap, the explicit ``seed``) — computing it never perturbs
        the report's canonical form or digest.

        Raises:
            StreamError: on an unknown metric name.
            StatsError: when the metric has no trials, or the interval
                method is unsupported.
        """
        return self.rate_estimator(metric).interval(
            confidence=confidence, method=method,
            resamples=resamples, seed=seed,
        )

    def summary(self) -> str:
        """One-line stream summary for reports."""
        p_keys = [k for k in self.latency_ms if k.startswith("p")]
        tail = (f" {p_keys[-1]}={self.latency_ms[p_keys[-1]]:.3f}ms"
                if p_keys else "")
        return (
            f"{self.label} [{self.policy}]: frames={self.frames} "
            f"completed={self.completed} dropped={self.dropped} "
            f"misses={self.deadline_misses} sdc={self.faults.sdc} "
            f"fps={self.throughput_fps:.1f} util={self.utilisation:.1%}"
            + tail
        )
