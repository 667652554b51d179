"""Deterministic open-loop arrival processes for frame streams.

Arrival times are generated from *indexed* PRNG substreams, mirroring the
sharded-campaign seed schedule (:func:`repro.faults.campaign.fault_substream`):
the randomness of frame ``i`` — its jitter offset, its Poisson gap, its
fault-overlay draws — comes exclusively from a PRNG seeded with
``SHA-256(seed, purpose, i)``.  No frame consumes another frame's draws,
so the stream's behaviour is a pure function of ``(spec, seed)`` and can
never depend on worker counts or chunk boundaries.

The three models:

* **periodic** — frame ``i`` arrives at exactly ``i * period_ms``;
* **jittered** — periodic plus an independent uniform offset in
  ``[-jitter_ms, +jitter_ms]`` per frame (sensor-timestamp wobble); with
  ``jitter_ms <= period_ms / 2`` arrival times stay non-decreasing;
* **poisson** — exponential inter-arrival gaps with mean ``period_ms``
  (memoryless open-loop traffic); arrival ``i`` is the prefix sum of the
  first ``i`` indexed gaps.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List

from repro.api.stream import ArrivalSpec
from repro.substreams import reseeding_substreams, substream

__all__ = [
    "arrival_chunk",
    "frame_substream",
    "iter_arrivals",
    "materialize_arrivals",
    "substream_factory",
]


def substream_factory(seed: int,
                      purpose: str) -> Callable[[int], random.Random]:
    """Build a fast per-frame substream generator for one purpose.

    The returned callable maps a frame index to a PRNG seeded with
    ``SHA-256(seed, purpose, index)`` — the exact seed schedule of
    :func:`frame_substream`, draw-for-draw identical.  It is the hot-loop
    form (:func:`repro.substreams.reseeding_substreams`): a single
    :class:`random.Random` instance is *re-seeded* per call instead of
    allocated.

    Because the instance is shared, each returned generator is only valid
    until the factory is called again — exhaust its draws before asking
    for the next frame's substream (the stream runner's frame loop does
    exactly this).  Use :func:`frame_substream` when the generator must
    outlive the next request.

    Args:
        seed: the stream's master seed.
        purpose: short label separating independent uses of the seed.

    Returns:
        A callable mapping ``index`` to the (shared, freshly re-seeded)
        substream PRNG.
    """
    return reseeding_substreams(f"{seed}:{purpose}:")


def frame_substream(seed: int, purpose: str, index: int) -> random.Random:
    """PRNG substream of frame ``index`` for one purpose within a stream.

    The substream is seeded with ``SHA-256(seed, purpose, index)``
    (:mod:`repro.substreams`), so a frame's draws for one purpose
    (``"jitter"``, ``"gap"``, ``"fault"``) are independent of every other
    frame's and of the other purposes' — the same indexed-randomness
    contract the sharded campaigns are built on (see
    ``docs/CAMPAIGNS.md`` and ``docs/STREAMS.md``).

    Args:
        seed: the stream's master seed.
        purpose: short label separating independent uses of the seed.
        index: frame index.

    Returns:
        A freshly seeded :class:`random.Random` (never shared — see
        :func:`substream_factory` for the amortised hot-loop variant).
    """
    return substream(f"{seed}:{purpose}:", index)


def arrival_chunk(spec: ArrivalSpec, seed: int,
                  lo: int, hi: int) -> List[float]:
    """Arrival values of frames ``[lo, hi)`` — a pure, pool-safe function.

    Returns arrival *times* for the periodic and jittered models and raw
    inter-arrival *gaps* for the Poisson model (whose prefix sum is
    inherently sequential; :func:`materialize_arrivals` folds the gaps in
    index order).  Every value is computed exactly as
    :func:`iter_arrivals` computes it — same substream, same expression —
    so chunk boundaries can never change a stream.

    Args:
        spec: the arrival process description.
        seed: the stream's master seed.
        lo: first frame index of the chunk (inclusive).
        hi: last frame index of the chunk (exclusive).
    """
    period = spec.period_ms
    if spec.model == "periodic":
        return [index * period for index in range(lo, hi)]
    if spec.model == "jittered":
        jitter = spec.jitter_ms
        if not jitter:
            return [max(0.0, index * period + 0.0) for index in range(lo, hi)]
        sub = substream_factory(seed, "jitter")
        return [
            max(0.0, index * period + sub(index).uniform(-jitter, jitter))
            for index in range(lo, hi)
        ]
    sub = substream_factory(seed, "gap")
    rate = 1.0 / period
    return [sub(index).expovariate(rate) for index in range(lo, hi)]


def materialize_arrivals(spec: ArrivalSpec,
                         parts: Iterable[List[float]]) -> List[float]:
    """Fold :func:`arrival_chunk` results into the stream's arrival times.

    ``parts`` cover consecutive index ranges from frame 0, in order, and
    the result is bit-identical to ``islice(iter_arrivals(spec, seed),
    frames)``.  Only the cheap Poisson prefix sum here is sequential, so
    the per-chunk substream work can run on a process pool.

    Args:
        spec: the arrival process description.
        parts: per-chunk values, in index order.

    Returns:
        Non-decreasing arrival times, one per frame.
    """
    if spec.model != "poisson":
        return [value for part in parts for value in part]
    out: List[float] = []
    append = out.append
    clock = 0.0
    for part in parts:
        for gap in part:
            clock += gap
            append(clock)
    return out


def iter_arrivals(spec: ArrivalSpec, seed: int) -> Iterator[float]:
    """Yield the stream's arrival times (milliseconds), frame by frame.

    The iterator is infinite — the runner slices it to the stream's frame
    count.  Arrival times are non-decreasing for every model
    (:class:`~repro.api.stream.ArrivalSpec` validates the jitter bound).

    Args:
        spec: the arrival process description.
        seed: the stream's master seed (jitter and Poisson substreams).
    """
    period = spec.period_ms
    if spec.model == "periodic":
        index = 0
        while True:
            yield index * period
            index += 1
    elif spec.model == "jittered":
        jitter = spec.jitter_ms
        sub = substream_factory(seed, "jitter")
        index = 0
        while True:
            offset = sub(index).uniform(
                -jitter, jitter
            ) if jitter else 0.0
            yield max(0.0, index * period + offset)
            index += 1
    else:  # poisson
        sub = substream_factory(seed, "gap")
        clock = 0.0
        index = 0
        while True:
            clock += sub(index).expovariate(1.0 / period)
            yield clock
            index += 1
