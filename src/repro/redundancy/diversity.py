"""Diversity metrics over execution traces.

Section IV-C of the paper argues SRRS and HALF "schedule any given thread
block from both kernels at different time instants and to different SMs".
This module turns that claim into measured quantities:

* **spatial diversity** — no redundant block pair shares an SM (defeats
  permanent/local faults);
* **temporal diversity** — no redundant block pair overlaps in time
  (SRRS's serialization);
* **phase separation** — for pairs that *do* overlap (HALF), the minimum
  distance, in work units, between the copies' execution phases over the
  overlap window.  A chip-wide transient (voltage droop) corrupts two
  copies *identically* only when they execute the same instruction at the
  same instant; a positive phase separation above the instruction
  granularity therefore suffices for detection — this is the paper's
  "staggered execution" diversity.

Progress is approximated as linear over a block's lifetime (exact under
piecewise-constant equal-share rates when shares do not change, and a
symmetric approximation otherwise — see
:meth:`repro.faults.types.TransientCCF.effect_on`).

:func:`analyze_diversity` reads the trace's block columns and folds every
pair into the report's aggregates in one pass; the per-pair
:class:`PairDiversity` objects are built only when
:attr:`DiversityReport.pairs` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.errors import RedundancyError
from repro.gpu.trace import ExecutionTrace, intervals_overlap

__all__ = ["PairDiversity", "DiversityReport", "analyze_diversity"]

#: Work-unit distance below which two executions count as phase-aligned
#: (roughly "the same instruction packet").
DEFAULT_PHASE_TOLERANCE = 1.0

#: One pair's values, in :class:`PairDiversity` field order.
_Row = Tuple[int, int, int, int, bool, float, Optional[float]]


def _phase_separation(a_start: float, a_end: float, b_start: float,
                      b_end: float, work: float) -> Optional[float]:
    """Minimum |work-position difference| between two overlapping blocks.

    Work position of block ``r`` at time ``t`` is
    ``work * (t - r.start) / r.duration`` (linear-progress approximation).
    The difference is linear in ``t``, so its absolute minimum over the
    overlap window occurs at a window endpoint or at the zero crossing.

    Returns ``None`` when the blocks do not overlap in time.
    """
    lo = max(a_start, b_start)
    hi = min(a_end, b_end)
    if hi <= lo:
        return None
    a_duration = a_end - a_start
    b_duration = b_end - b_start
    if a_duration == 0 or b_duration == 0:
        return 0.0

    def diff(t: float) -> float:
        wa = work * (t - a_start) / a_duration
        wb = work * (t - b_start) / b_duration
        return wa - wb

    d_lo, d_hi = diff(lo), diff(hi)
    if (d_lo <= 0 <= d_hi) or (d_hi <= 0 <= d_lo):
        return 0.0
    return min(abs(d_lo), abs(d_hi))


@dataclass(frozen=True)
class PairDiversity:
    """Diversity of one redundant thread-block pair.

    Attributes:
        logical_id / tb_index: which computation the pair implements.
        sm_a / sm_b: SMs of the two copies.
        time_overlap: whether the execution intervals intersect.
        time_slack: gap between the intervals (negative = overlap length).
        phase_separation: minimum work-position distance while overlapping
            (``None`` when not overlapping — infinitely separated).
    """

    logical_id: int
    tb_index: int
    sm_a: int
    sm_b: int
    time_overlap: bool
    time_slack: float
    phase_separation: Optional[float]

    @property
    def same_sm(self) -> bool:
        """True when both copies used the same SM."""
        return self.sm_a == self.sm_b

    def is_diverse(self, phase_tolerance: float = DEFAULT_PHASE_TOLERANCE) -> bool:
        """Paper criterion: different SM AND never phase-aligned in time."""
        if self.same_sm:
            return False
        if not self.time_overlap:
            return True
        return (
            self.phase_separation is not None
            and self.phase_separation > phase_tolerance
        )


class DiversityReport:
    """Aggregated diversity over every redundant pair of a trace.

    The aggregates are folded from the pairs in one pass when the report
    is made; :attr:`pairs` is built on first read when the report came
    from :func:`analyze_diversity`.  Treat a report as immutable.

    Args:
        pairs: per-pair details.
        phase_tolerance: alignment threshold of :meth:`PairDiversity
            .is_diverse`.

    Attributes:
        total_pairs: number of redundant block pairs analysed.
        same_sm_pairs: pairs whose copies shared an SM (permanent-CCF
            exposure).
        overlapping_pairs: pairs whose copies overlapped in time.
        phase_aligned_pairs: overlapping pairs within the phase tolerance
            (transient-CCF exposure).
        fully_diverse: the paper's diverse-redundancy criterion holds for
            every pair.
        min_time_slack: smallest inter-copy gap across pairs (negative =
            overlap); ``None`` without pairs.
        min_phase_separation: smallest phase separation among overlapping
            pairs; ``None`` when there is none.
    """

    __slots__ = ("phase_tolerance", "total_pairs", "same_sm_pairs",
                 "overlapping_pairs", "phase_aligned_pairs", "fully_diverse",
                 "min_time_slack", "min_phase_separation", "_pairs",
                 "_rows")

    def __init__(self, pairs: Iterable[PairDiversity] = (),
                 phase_tolerance: float = DEFAULT_PHASE_TOLERANCE) -> None:
        self._pairs: Optional[Tuple[PairDiversity, ...]] = tuple(pairs)
        self._rows: Optional[Callable[[], Iterator[_Row]]] = None
        self._fold(((p.logical_id, p.tb_index, p.sm_a, p.sm_b,
                     p.time_overlap, p.time_slack, p.phase_separation)
                    for p in self._pairs), phase_tolerance)

    @classmethod
    def _of_rows(cls, rows: Callable[[], Iterator[_Row]],
                 phase_tolerance: float) -> "DiversityReport":
        """A report folded from ``rows()``; :attr:`pairs` calls it again."""
        report = cls.__new__(cls)
        report._pairs = None
        report._rows = rows
        report._fold(rows(), phase_tolerance)
        return report

    def _fold(self, rows: Iterable[_Row], phase_tolerance: float) -> None:
        total = same_sm = overlapping = aligned = 0
        diverse = True
        min_slack: Optional[float] = None
        min_sep: Optional[float] = None
        for _logical, _tb, sm_a, sm_b, overlap, slack, sep in rows:
            total += 1
            if sm_a == sm_b:
                same_sm += 1
                diverse = False
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if overlap:
                overlapping += 1
                if not (sep is not None and sep > phase_tolerance):
                    diverse = False
                if sep is not None:
                    if sep <= phase_tolerance:
                        aligned += 1
                    if min_sep is None or sep < min_sep:
                        min_sep = sep
        self.phase_tolerance = phase_tolerance
        self.total_pairs = total
        self.same_sm_pairs = same_sm
        self.overlapping_pairs = overlapping
        self.phase_aligned_pairs = aligned
        self.fully_diverse = diverse
        self.min_time_slack = min_slack
        self.min_phase_separation = min_sep

    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[PairDiversity, ...]:
        """Per-pair details, in logical-id then block-index order."""
        if self._pairs is None:
            assert self._rows is not None
            self._pairs = tuple(PairDiversity(*row) for row in self._rows())
            self._rows = None
        return self._pairs

    @property
    def spatially_diverse(self) -> bool:
        """No pair shares an SM."""
        return self.same_sm_pairs == 0

    @property
    def temporally_diverse(self) -> bool:
        """No pair overlaps in time (SRRS's stronger property)."""
        return self.overlapping_pairs == 0

    def summary(self) -> str:
        """One-line report string used by benches and examples."""
        return (
            f"pairs={self.total_pairs} same_sm={self.same_sm_pairs} "
            f"overlapping={self.overlapping_pairs} "
            f"phase_aligned={self.phase_aligned_pairs} "
            f"fully_diverse={self.fully_diverse}"
        )


def _pair_rows(trace: ExecutionTrace, copy_a: int, copy_b: int,
               work: float) -> Iterator[_Row]:
    """Every redundant pair's values, from the trace's block columns."""
    cols = trace.columns
    tb_index, sm, start, end = cols.tb_index, cols.sm, cols.start, cols.end
    for logical_id in trace.logical_ids():
        copies = trace.copies_of(logical_id)
        if copy_a not in copies or copy_b not in copies:
            raise RedundancyError(
                f"logical kernel {logical_id} lacks copies "
                f"{copy_a}/{copy_b}: has {sorted(copies)}"
            )
        for ra, rb in trace.paired_rows(logical_id, copy_a, copy_b):
            a_start, a_end, b_start, b_end = start[ra], end[ra], start[rb], end[rb]
            overlap = intervals_overlap(a_start, a_end, b_start, b_end)
            if overlap:
                slack = -(min(a_end, b_end) - max(a_start, b_start))
            else:
                slack = max(b_start - a_end, a_start - b_end)
            yield (logical_id, tb_index[ra], sm[ra], sm[rb], overlap, slack,
                   _phase_separation(a_start, a_end, b_start, b_end, work))


def analyze_diversity(trace: ExecutionTrace, *,
                      copy_a: int = 0, copy_b: int = 1,
                      work_per_block: float = 1000.0,
                      phase_tolerance: float = DEFAULT_PHASE_TOLERANCE
                      ) -> DiversityReport:
    """Measure diversity between two redundancy copies across a trace.

    Args:
        trace: simulation trace containing both copies of every logical
            kernel.
        copy_a / copy_b: the two copies to compare.
        work_per_block: work units per block, used to convert phase
            fractions to work positions (instruction-granularity units).
        phase_tolerance: alignment threshold for :meth:`PairDiversity
            .is_diverse`.

    Raises:
        RedundancyError: when a logical kernel lacks one of the copies.
    """
    return DiversityReport._of_rows(
        partial(_pair_rows, trace, copy_a, copy_b, work_per_block),
        phase_tolerance,
    )
