"""Indexed PRNG substreams: the one seeding recipe.

Every indexed draw of the reproduction — fault ``i`` of a campaign
(:func:`repro.faults.campaign.fault_substream`), frame ``i`` of a stream
for one purpose (:func:`repro.streams.arrivals.frame_substream`) — comes
from a :class:`random.Random` seeded with the first eight bytes
(big-endian) of ``SHA-256(key + str(index))``.  The key names the
stream (``"{seed}:"`` for campaign faults, ``"{seed}:{purpose}:"`` for
frames), so no index ever consumes another index's draws and any
contiguous range can be regenerated on its own (``docs/CAMPAIGNS.md``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

__all__ = ["reseeding_substreams", "substream", "substream_seed"]


def substream_seed(key: str, index: int) -> int:
    """Seed of substream ``index`` of the stream named ``key``."""
    digest = hashlib.sha256(f"{key}{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(key: str, index: int) -> random.Random:
    """A fresh generator for substream ``index`` of ``key``."""
    return random.Random(substream_seed(key, index))


def reseeding_substreams(key: str) -> Callable[[int], random.Random]:
    """The amortised form of :func:`substream`, draw-for-draw identical.

    The returned callable re-seeds one shared :class:`random.Random`
    per index instead of allocating one, so each generator it hands out
    is valid only until the next call: exhaust its draws before asking
    for the next index.
    """
    rng = random.Random(0)
    reseed = rng.seed

    def at(index: int) -> random.Random:
        reseed(substream_seed(key, index))
        return rng

    return at
