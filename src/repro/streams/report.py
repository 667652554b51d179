"""The canonical stream outcome: :class:`StreamReport`.

A report is the *complete* observable outcome of one stream execution —
counters, online latency statistics, throughput/utilisation aggregates —
in plain data.  It deliberately contains **no per-frame records**: a
100-million-frame soak run and a 100-frame smoke test produce reports of
identical size.  Like :class:`~repro.faults.campaign.CampaignReport` it
offers a canonical :meth:`StreamReport.to_dict` and a
:meth:`StreamReport.digest` over it; the determinism contract of
:mod:`repro.streams` (see ``docs/STREAMS.md``) is stated over that
digest: same :class:`~repro.api.stream.StreamSpec` + seed ⇒ bit-identical
digest, for any worker count or chunk size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple, Type

from repro.errors import ReproError, StatsError, StreamError
from repro.journal import payload_digest

if TYPE_CHECKING:
    from repro.stats.estimators import UniformRate
    from repro.stats.intervals import RateEstimate

__all__ = [
    "STREAM_RATE_METRICS",
    "StreamReport",
    "payload_field",
    "quantile_key",
]

#: Stream rates with a well-defined event/trial count pair, i.e. the
#: metrics :meth:`StreamReport.rate_interval` (and the stream repeater)
#: can put a confidence interval on.
STREAM_RATE_METRICS = ("deadline_miss", "drop", "unsafe", "fault_sdc")


def quantile_key(q: float) -> str:
    """Canonical report key of one latency quantile (``0.99`` → ``"p99"``)."""
    return f"p{100.0 * q:.10g}"


#: JSON type name -> (Python types, error wording) for :func:`payload_field`.
_PAYLOAD_TYPES = {
    "int": ((int,), "an integer"),
    "number": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "object": ((Mapping,), "an object"),
}


def payload_field(data: Mapping[str, Any], name: str, expected: str,
                  error: Type[ReproError], *, label: str = "") -> Any:
    """``data[name]`` of a saved report, checked against its JSON type.

    ``expected`` is ``"int"``, ``"number"``, ``"str"``, ``"object"`` or
    ``"numbers"`` (an object whose values are all numbers); ``label``
    prefixes ``name`` for nested fields.

    Raises:
        ReproError: ``error``, naming the field, when the value has
            another type.
    """
    value = data[name]
    if expected == "numbers":
        payload_field(data, name, "object", error, label=label)
        for key in value:
            payload_field(value, key, "number", error,
                          label=f"{label}{name}.")
        return value
    types, wording = _PAYLOAD_TYPES[expected]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"report field {label + name!r} must be {wording}, "
                    f"got {value!r}")
    return value


@dataclass(frozen=True)
class StreamReport:
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
        faults_injected / faults_masked / faults_detected / faults_sdc:
            fault-overlay outcome counters (all zero without an overlay).
        re_executions: frames re-executed after a detected error (each
            adds one full service time to the frame's latency).
        latency: online latency statistics in milliseconds — ``count``,
            ``min``, ``max``, ``mean``, ``std`` plus one P² estimate per
            tracked quantile (keys from :func:`quantile_key`).
        wait: same statistics for the queueing delay (arrival to service
            start).
        service: per-job service profile, ``workload label ->
            service milliseconds``.
        elapsed_ms: stream makespan (last completion or last arrival,
            whichever is later).
        throughput_fps: completed frames per second of stream time.
        utilisation: server busy fraction (total service time over
            ``elapsed_ms``).
        windows: tumbling-window aggregates (see
            :meth:`repro.streams.analytics.WindowedRates.summary`).
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
    faults_injected: int
    faults_masked: int
    faults_detected: int
    faults_sdc: int
    re_executions: int
    latency: Dict[str, float] = field(default_factory=dict)
    wait: Dict[str, float] = field(default_factory=dict)
    service: Dict[str, float] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    throughput_fps: float = 0.0
    utilisation: float = 0.0
    windows: Dict[str, float] = field(default_factory=dict)

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
        if not self.frames:
            return 0.0
        unsafe = self.dropped + self.deadline_misses + self.faults_sdc
        return max(0.0, (self.frames - unsafe) / self.frames)

    # ------------------------------------------------------------------
    # confidence intervals (on demand — never part of the canonical form)
    # ------------------------------------------------------------------
    def _rate_counts(self, metric: str) -> Tuple[int, int]:
        """``(events, trials)`` of one stream rate metric.

        Raises:
            StreamError: on an unknown metric name.
        """
        if metric == "deadline_miss":
            return self.deadline_misses, self.completed
        if metric == "drop":
            return self.dropped, self.frames
        if metric == "unsafe":
            unsafe = self.dropped + self.deadline_misses + self.faults_sdc
            return min(self.frames, unsafe), self.frames
        if metric == "fault_sdc":
            return self.faults_sdc, self.faults_injected
        raise StreamError(
            f"unknown stream rate metric {metric!r}; known: "
            + ", ".join(STREAM_RATE_METRICS)
        )

    def rate_estimator(self, metric: str = "deadline_miss") -> UniformRate:
        """Estimator of one stream rate (frames are i.i.d. trials).

        Raises:
            StreamError: on an unknown metric name.
            StatsError: when the metric has no trials yet (e.g.
                ``fault_sdc`` before any fault was injected).
        """
        from repro.stats.estimators import UniformRate

        events, trials = self._rate_counts(metric)
        if trials < 1:
            raise StatsError(
                f"stream rate {metric!r} has no trials to estimate from"
            )
        return UniformRate(events, trials, metric=metric)

    def rate_interval(self, metric: str = "deadline_miss", *,
                      confidence: float = 0.95, method: str = "auto",
                      resamples: int = 1000, seed: int = 0) -> RateEstimate:
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

    def metric_intervals(self, *, confidence: float = 0.95,
                         method: str = "auto", resamples: int = 1000,
                         seed: int = 0) -> Dict[str, RateEstimate]:
        """Intervals on every stream rate that has trials.

        Metrics without trials (``fault_sdc`` on a fault-free stream,
        ``deadline_miss`` before any completion) are simply absent.
        """
        intervals: Dict[str, RateEstimate] = {}
        for metric in STREAM_RATE_METRICS:
            _, trials = self._rate_counts(metric)
            if trials < 1:
                continue
            intervals[metric] = self.rate_interval(
                metric, confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        return intervals

    def quantile(self, q: float) -> float:
        """Latency quantile estimate tracked by the stream.

        Raises:
            StreamError: when ``q`` was not in the spec's quantile set.
        """
        key = quantile_key(q)
        if key not in self.latency:
            raise StreamError(
                f"quantile {q} was not tracked; available: "
                f"{', '.join(k for k in self.latency if k.startswith('p'))}"
            )
        return self.latency[key]

    def summary(self) -> str:
        """One-line stream summary for reports."""
        p_keys = [k for k in self.latency if k.startswith("p")]
        tail = (f" {p_keys[-1]}={self.latency[p_keys[-1]]:.3f}ms"
                if p_keys else "")
        return (
            f"{self.label} [{self.policy}]: frames={self.frames} "
            f"completed={self.completed} dropped={self.dropped} "
            f"misses={self.deadline_misses} sdc={self.faults_sdc} "
            f"fps={self.throughput_fps:.1f} util={self.utilisation:.1%}"
            + tail
        )

    # ------------------------------------------------------------------
    # canonical plain-data form (bit-identity comparisons, CLI --json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form of the aggregate outcome.

        Two executions of the same spec + seed produce *equal*
        dictionaries regardless of worker counts or chunk sizes — this is
        the object the stream determinism guarantee is stated over (see
        ``docs/STREAMS.md``).  Per-frame records are structurally absent.
        """
        return {
            "label": self.label,
            "policy": self.policy,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "frames": self.frames,
            "completed": self.completed,
            "dropped": self.dropped,
            "deadline_ms": self.deadline_ms,
            "deadline_misses": self.deadline_misses,
            "deadline_met": self.deadline_met,
            "miss_rate": self.miss_rate,
            "drop_rate": self.drop_rate,
            "safe_rate": self.safe_rate,
            "faults": {
                "injected": self.faults_injected,
                "masked": self.faults_masked,
                "detected": self.faults_detected,
                "sdc": self.faults_sdc,
                "re_executions": self.re_executions,
            },
            "latency_ms": dict(sorted(self.latency.items())),
            "wait_ms": dict(sorted(self.wait.items())),
            "service_ms": dict(sorted(self.service.items())),
            "elapsed_ms": self.elapsed_ms,
            "throughput_fps": self.throughput_fps,
            "utilisation": self.utilisation,
            "windows": dict(sorted(self.windows.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Raises:
            StreamError: when required keys are missing (the signature of
                loading something that is not a stream report) or a
                field has the wrong JSON type (naming the field).
        """
        if not isinstance(data, Mapping):
            raise StreamError(f"StreamReport expects a mapping, got {data!r}")
        required: Tuple[str, ...] = (
            "label", "policy", "spec_hash", "seed", "frames", "completed",
            "dropped", "deadline_ms", "deadline_misses", "faults",
        )
        missing = sorted(set(required) - set(data))
        if missing:
            raise StreamError(
                f"not a StreamReport payload; missing: {', '.join(missing)}"
            )
        faults = data["faults"]
        fault_keys = ("injected", "masked", "detected", "sdc",
                      "re_executions")
        if not isinstance(faults, Mapping) or set(fault_keys) - set(faults):
            raise StreamError(
                "not a StreamReport payload; 'faults' must map "
                + ", ".join(fault_keys)
            )
        # optional keys take their defaults, so a payload missing one
        # still loads
        data = {"latency_ms": {}, "wait_ms": {}, "service_ms": {},
                "windows": {}, "elapsed_ms": 0.0, "throughput_fps": 0.0,
                "utilisation": 0.0, **data}

        def typed(name: str, expected: str) -> Any:
            return payload_field(data, name, expected, StreamError)

        def counter(name: str) -> int:
            return payload_field(faults, name, "int", StreamError,
                                 label="faults.")

        return cls(
            label=typed("label", "str"),
            policy=typed("policy", "str"),
            spec_hash=typed("spec_hash", "str"),
            seed=typed("seed", "int"),
            frames=typed("frames", "int"),
            completed=typed("completed", "int"),
            dropped=typed("dropped", "int"),
            deadline_ms=typed("deadline_ms", "number"),
            deadline_misses=typed("deadline_misses", "int"),
            faults_injected=counter("injected"),
            faults_masked=counter("masked"),
            faults_detected=counter("detected"),
            faults_sdc=counter("sdc"),
            re_executions=counter("re_executions"),
            latency=dict(typed("latency_ms", "numbers")),
            wait=dict(typed("wait_ms", "numbers")),
            service=dict(typed("service_ms", "numbers")),
            elapsed_ms=typed("elapsed_ms", "number"),
            throughput_fps=typed("throughput_fps", "number"),
            utilisation=typed("utilisation", "number"),
            windows=dict(typed("windows", "numbers")),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def digest(self) -> str:
        """Hex digest of the canonical form (aggregate provenance key)."""
        return payload_digest(self.to_dict())
