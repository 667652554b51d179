"""Online, O(1)-memory stream statistics.

Million-frame soak runs must never materialise per-frame records, so all
stream analytics are *streaming* folds:

* :class:`P2Quantile` — the P² quantile estimator (Jain & Chlamtac,
  CACM 1985): five markers per tracked quantile, parabolic interpolation,
  exact for the first five observations, O(1) per update;
* :class:`WindowedRates` — tumbling windows over the stream's virtual
  time axis whose per-window throughput and utilisation fold into
  bounded min/mean/max aggregates (empty windows count as idle);
* :class:`StreamAccumulator` — the fused per-frame fold the stream
  runner drives: one ``observe()`` call updates the latency and wait
  moments (count / min / max / mean / variance via Welford's algorithm,
  numerically stable and single pass), every quantile estimator and the
  tumbling windows without re-chasing attributes per frame.

All folds are deterministic: feeding the same values in the same order
produces bit-identical state, which is what lets
:meth:`~repro.streams.report.StreamReport.digest` promise bit-identity
across worker/chunk configurations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import StreamError

__all__ = [
    "P2Quantile",
    "StreamAccumulator",
    "WindowedRates",
]


class P2Quantile:
    """Streaming estimate of one quantile in O(1) memory (P² algorithm).

    The estimator keeps five markers whose heights track the minimum, the
    quantile's neighbourhood and the maximum; marker positions follow
    their desired positions with parabolic (fallback linear) height
    adjustment.  The first five observations are buffered, so estimates
    are *exact* until then.

    Args:
        q: the tracked quantile, strictly in ``(0, 1)``.
    """

    __slots__ = (
        "_q", "_heights", "_positions", "_desired", "_increments", "_count",
    )

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise StreamError("quantile must lie strictly in (0, 1)")
        self._q = q
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    @property
    def q(self) -> float:
        """The tracked quantile."""
        return self._q

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self._count

    # ------------------------------------------------------------------
    def add(self, x: float) -> None:
        """Fold one observation into the estimate.

        This is the hottest analytics path (one call per quantile per
        completed frame), so the marker bookkeeping is unrolled and the
        parabolic/linear height predictions are inlined on locals.  Every
        floating-point operation matches the textbook formulation
        operation-for-operation, keeping the fold bit-identical to the
        previous layered implementation.
        """
        count = self._count + 1
        self._count = count
        heights = self._heights
        if count <= 5:
            heights.append(x)
            heights.sort()
            if count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0 + 4.0 * inc for inc in self._increments
                ]
            return

        n = self._positions
        desired = self._desired
        increments = self._increments
        # locate the cell k with heights[k] <= x < heights[k+1]
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= heights[k + 1]:
                k += 1
        if k == 0:
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
            n[4] += 1.0
        elif k == 1:
            n[2] += 1.0
            n[3] += 1.0
            n[4] += 1.0
        elif k == 2:
            n[3] += 1.0
            n[4] += 1.0
        else:
            n[4] += 1.0
        # desired[0] accumulates increments[0] == 0.0 — an exact no-op
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += increments[4]

        # adjust the three interior markers toward their desired positions
        for i in (1, 2, 3):
            ni = n[i]
            delta = desired[i] - ni
            if delta >= 1.0:
                nip = n[i + 1]
                if nip - ni <= 1.0:
                    continue
                step = 1.0
                nim = n[i - 1]
            elif delta <= -1.0:
                nim = n[i - 1]
                if nim - ni >= -1.0:
                    continue
                step = -1.0
                nip = n[i + 1]
            else:
                continue
            hi = heights[i]
            him = heights[i - 1]
            hip = heights[i + 1]
            candidate = hi + step / (nip - nim) * (
                (ni - nim + step) * (hip - hi) / (nip - ni)
                + (nip - ni - step) * (hi - him) / (ni - nim)
            )
            if him < candidate < hip:
                heights[i] = candidate
            elif step == 1.0:
                heights[i] = hi + step * (hip - hi) / (nip - ni)
            else:
                heights[i] = hi + step * (him - hi) / (nim - ni)
            n[i] = ni + step

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """The current quantile estimate.

        Exact (interpolated from the sorted buffer) while fewer than five
        observations have arrived; the centre P² marker afterwards.

        Raises:
            StreamError: before any observation.
        """
        if self._count == 0:
            raise StreamError("quantile of an empty stream is undefined")
        if self._count < 5:
            ordered = self._heights
            rank = self._q * (len(ordered) - 1)
            lo = math.floor(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] + (ordered[hi] - ordered[lo]) * frac
        return self._heights[2]


class WindowedRates:
    """Tumbling throughput/utilisation windows with bounded aggregates.

    The stream's virtual time axis is cut into windows of ``window_ms``;
    each completed frame contributes its completion instant and the GPU
    busy time it consumed.  When the stream moves past a window the
    window's throughput (frames per second) and utilisation (busy time
    over window length) fold into min/mean/max aggregates — windows with
    no completions count as idle, so the aggregates honestly reflect
    bursts *and* gaps.  Memory is O(1) regardless of stream length.

    Completion instants must be non-decreasing (single-server FIFO
    streams satisfy this by construction).

    Args:
        window_ms: window length in stream milliseconds.
    """

    __slots__ = (
        "_window_ms", "_current", "_frames_in_window", "_busy_in_window",
        "_last_t", "_windows", "_fps_min", "_fps_max", "_fps_sum",
        "_util_min", "_util_max", "_util_sum",
    )

    def __init__(self, window_ms: float) -> None:
        if window_ms <= 0:
            raise StreamError("window length must be positive")
        self._window_ms = window_ms
        self._current = 0          # index of the open window
        self._frames_in_window = 0
        self._busy_in_window = 0.0
        self._last_t = 0.0
        # folded aggregates over closed windows
        self._windows = 0
        self._fps_min = math.inf
        self._fps_max = -math.inf
        self._fps_sum = 0.0
        self._util_min = math.inf
        self._util_max = -math.inf
        self._util_sum = 0.0

    @property
    def window_ms(self) -> float:
        """Window length in stream milliseconds."""
        return self._window_ms

    # ------------------------------------------------------------------
    def observe(self, completion_ms: float, busy_ms: float) -> None:
        """Fold one completed frame.

        Args:
            completion_ms: the frame's completion instant (non-decreasing
                across calls).
            busy_ms: GPU busy time the frame consumed.

        Raises:
            StreamError: when completion instants go backwards.
        """
        if completion_ms < self._last_t:
            raise StreamError(
                "window completions must be non-decreasing "
                f"({completion_ms} after {self._last_t})"
            )
        self._last_t = completion_ms
        window = int(completion_ms // self._window_ms)
        if window > self._current:
            self._roll_to(window)
        self._frames_in_window += 1
        self._busy_in_window += busy_ms

    def _roll_to(self, window: int) -> None:
        """Close the open window (plus any skipped idle windows)."""
        self._fold(self._frames_in_window, self._busy_in_window)
        idle = window - self._current - 1
        if idle > 0:
            # idle windows fold as zero throughput / zero utilisation
            self._windows += idle
            self._fps_min = min(self._fps_min, 0.0)
            self._fps_max = max(self._fps_max, 0.0)
            self._util_min = min(self._util_min, 0.0)
            self._util_max = max(self._util_max, 0.0)
        self._current = window
        self._frames_in_window = 0
        self._busy_in_window = 0.0

    def _fold(self, frames: int, busy_ms: float) -> None:
        fps = frames / (self._window_ms / 1000.0)
        util = min(1.0, busy_ms / self._window_ms)
        self._windows += 1
        self._fps_min = min(self._fps_min, fps)
        self._fps_max = max(self._fps_max, fps)
        self._fps_sum += fps
        self._util_min = min(self._util_min, util)
        self._util_max = max(self._util_max, util)
        self._util_sum += util

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Close the open window and return the folded aggregates.

        Returns:
            Mapping with ``windows``, ``window_ms`` and the
            ``fps_min/mean/max`` / ``util_min/mean/max`` aggregates
            (all zero when the stream produced no completions).
        """
        frames, busy = self._frames_in_window, self._busy_in_window
        windows = self._windows
        fps_min, fps_max, fps_sum = self._fps_min, self._fps_max, self._fps_sum
        util_min, util_max = self._util_min, self._util_max
        util_sum = self._util_sum
        if frames or windows == 0:
            # fold the in-progress window without mutating state, so
            # summary() is idempotent and observe() can continue
            fps = frames / (self._window_ms / 1000.0)
            util = min(1.0, busy / self._window_ms)
            windows += 1
            fps_min = min(fps_min, fps)
            fps_max = max(fps_max, fps)
            fps_sum += fps
            util_min = min(util_min, util)
            util_max = max(util_max, util)
            util_sum += util
        return {
            "windows": float(windows),
            "window_ms": self._window_ms,
            "fps_min": fps_min,
            "fps_mean": fps_sum / windows,
            "fps_max": fps_max,
            "util_min": util_min,
            "util_mean": util_sum / windows,
            "util_max": util_max,
        }


class StreamAccumulator:
    """Fused per-frame analytics fold for the stream runner's hot loop.

    One :meth:`observe` call per completed frame updates the latency
    Welford moments, the wait Welford moments, every P² quantile
    estimator and the tumbling windows — the work the runner previously
    spread over four attribute chains per frame.  The Welford updates
    are inlined on ``__slots__`` fields and the quantile ``add`` bound
    methods are pre-resolved, so a frame costs a single method call plus
    plain local arithmetic.

    Args:
        quantiles: latency quantiles to track (one P² estimator each).
        window_ms: tumbling-window length in stream milliseconds.
    """

    __slots__ = (
        "_lat_count", "_lat_min", "_lat_max", "_lat_mean", "_lat_m2",
        "_wait_count", "_wait_min", "_wait_max", "_wait_mean", "_wait_m2",
        "estimators", "_est_adds", "windows",
    )

    def __init__(self, quantiles: Sequence[float], window_ms: float) -> None:
        self._lat_count = 0
        self._lat_min = math.inf
        self._lat_max = -math.inf
        self._lat_mean = 0.0
        self._lat_m2 = 0.0
        self._wait_count = 0
        self._wait_min = math.inf
        self._wait_max = -math.inf
        self._wait_mean = 0.0
        self._wait_m2 = 0.0
        self.estimators: Tuple[P2Quantile, ...] = tuple(
            P2Quantile(q) for q in quantiles
        )
        self._est_adds = tuple(e.add for e in self.estimators)
        self.windows = WindowedRates(window_ms)

    def observe(self, latency: float, wait: float,
                completion_ms: float, busy_ms: float) -> None:
        """Fold one completed frame into every statistic.

        Args:
            latency: the frame's end-to-end latency (completion minus
                arrival).
            wait: the frame's queueing wait (begin minus arrival).
            completion_ms: the frame's completion instant (non-decreasing
                across calls — enforced by the tumbling windows).
            busy_ms: GPU busy time the frame consumed.
        """
        count = self._lat_count + 1
        self._lat_count = count
        if latency < self._lat_min:
            self._lat_min = latency
        if latency > self._lat_max:
            self._lat_max = latency
        delta = latency - self._lat_mean
        mean = self._lat_mean + delta / count
        self._lat_mean = mean
        self._lat_m2 += delta * (latency - mean)

        count = self._wait_count + 1
        self._wait_count = count
        if wait < self._wait_min:
            self._wait_min = wait
        if wait > self._wait_max:
            self._wait_max = wait
        delta = wait - self._wait_mean
        mean = self._wait_mean + delta / count
        self._wait_mean = mean
        self._wait_m2 += delta * (wait - mean)

        for add in self._est_adds:
            add(latency)
        self.windows.observe(completion_ms, busy_ms)

    # ------------------------------------------------------------------
    def latency_summary(self) -> Dict[str, float]:
        """Plain-data latency moments (``{"count": 0.0}`` when empty)."""
        count = self._lat_count
        if count == 0:
            return {"count": 0.0}
        return {
            "count": float(count),
            "min": self._lat_min,
            "max": self._lat_max,
            "mean": self._lat_mean,
            "std": math.sqrt(self._lat_m2 / count),
        }

    def wait_summary(self) -> Dict[str, float]:
        """Plain-data wait moments (``{"count": 0.0}`` when empty)."""
        count = self._wait_count
        if count == 0:
            return {"count": 0.0}
        return {
            "count": float(count),
            "min": self._wait_min,
            "max": self._wait_max,
            "mean": self._wait_mean,
            "std": math.sqrt(self._wait_m2 / count),
        }
