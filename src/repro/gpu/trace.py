"""Execution traces produced by the GPU simulator.

The diversity argument of the paper (Section IV-C) quantifies over *where*
and *when* each thread block of each redundant kernel copy executed.  The
trace captures exactly that: one :class:`TBRecord` per thread block with its
SM and execution interval, plus one :class:`KernelSpan` per kernel launch.

Traces are the single source of truth consumed by:

* :mod:`repro.redundancy.diversity` — SM-disjointness and time-slack metrics,
* :mod:`repro.faults` — fault-injection outcome classification,
* :mod:`repro.analysis` — overlap measurement and report generation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["TBRecord", "KernelSpan", "ExecutionTrace", "intervals_overlap"]


#: Relative widening of the max-duration stabbing window.  Durations and
#: the window bound are float differences, each off by at most a few ulps
#: (~1e-16 relative), so widening by 1e-9 keeps the candidate set a
#: superset of the active blocks.
_WINDOW_SLACK = 1e-9


def intervals_overlap(a_start: float, a_end: float,
                      b_start: float, b_end: float) -> bool:
    """True when the half-open intervals ``[a_start, a_end)`` and
    ``[b_start, b_end)`` intersect."""
    return a_start < b_end and b_start < a_end


class _StartWindow:
    """Records sorted by start, plus their longest duration.

    A block active at ``t`` started at or before ``t`` and at most one
    longest duration earlier, so two bisections bound every stabbing
    query.
    """

    __slots__ = ("records", "starts", "longest")

    def __init__(self, records: Iterable[TBRecord]) -> None:
        self.records = sorted(records, key=lambda r: r.start)
        self.starts = [r.start for r in self.records]
        self.longest = max((r.duration for r in self.records), default=0.0)

    def around(self, t: float) -> List[TBRecord]:
        """A superset of the records with ``start <= t < end``."""
        hi = bisect.bisect_right(self.starts, t)
        bound = t - self.longest
        bound -= _WINDOW_SLACK * (abs(t) + self.longest)
        return self.records[bisect.bisect_left(self.starts, bound, 0, hi):hi]


class _IntervalIndex:
    """Per-trace query index, built on first use (see ``ExecutionTrace``).

    * ``window``: one :class:`_StartWindow` over all records (key
      ``None``) and one per SM, for time stabbing;
    * ``by_end``: per-SM records sorted by end, with their end times,
      for "still running after ``t``" queries.
    """

    __slots__ = ("window", "by_end", "position")

    def __init__(self, records: List[TBRecord],
                 by_sm: Dict[int, List[TBRecord]]) -> None:
        self.window: Dict[Optional[int], _StartWindow] = {
            None: _StartWindow(records)
        }
        self.by_end: Dict[int, Tuple[List[float], List[TBRecord]]] = {}
        for sm, on_sm in by_sm.items():
            self.window[sm] = _StartWindow(on_sm)
            ordered = sorted(on_sm, key=lambda r: r.end)
            self.by_end[sm] = ([r.end for r in ordered], ordered)
        self.position = {id(r): i for i, r in enumerate(records)}


@dataclass(frozen=True)
class TBRecord:
    """Execution record of one thread block.

    Attributes:
        instance_id: kernel launch the block belongs to.
        logical_id: logical computation id (shared by redundant copies).
        copy_id: redundancy copy index of the owning launch.
        tb_index: block index within the grid (0-based).
        sm: SM the block executed on (blocks never migrate).
        start: dispatch-to-SM time (cycles).
        end: completion time (cycles).
        tag: workload label carried from the launch.
    """

    instance_id: int
    logical_id: int
    copy_id: int
    tb_index: int
    sm: int
    start: float
    end: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"TB {self.tb_index} of instance {self.instance_id}: "
                f"end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Execution time of the block in cycles."""
        return self.end - self.start

    def phase_at(self, t: float) -> Optional[float]:
        """Execution phase (0..1 fraction of progress) at time ``t``.

        Returns ``None`` when the block is not executing at ``t``.  Under
        the fluid model progress is piecewise linear; we approximate the
        phase as the elapsed-time fraction, which is exact whenever rates
        are constant over the block's lifetime and a good proxy otherwise.
        The fault model only compares phases *between redundant copies of
        the same block*, for which the approximation is symmetric.
        """
        start, end = self.start, self.end
        if not (start <= t < end) or end == start:
            return None
        return (t - start) / (end - start)

    def active_at(self, t: float) -> bool:
        """True when the block occupies its SM at time ``t``."""
        return self.start <= t < self.end

    def overlaps(self, other: "TBRecord") -> bool:
        """True when the two blocks' execution intervals intersect."""
        return intervals_overlap(self.start, self.end, other.start, other.end)


@dataclass(frozen=True)
class KernelSpan:
    """Summary of one kernel launch's execution.

    Attributes:
        instance_id / logical_id / copy_id / tag: identity (see
        :class:`TBRecord`).
        kernel_name: descriptor name.
        arrival: time the launch reached the GPU kernel scheduler.
        first_dispatch: time its first block started on an SM.
        completion: time its last block finished.
    """

    instance_id: int
    logical_id: int
    copy_id: int
    kernel_name: str
    arrival: float
    first_dispatch: float
    completion: float
    tag: str = ""

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (includes scheduler queueing)."""
        return self.completion - self.arrival

    @property
    def exec_time(self) -> float:
        """First-dispatch-to-completion time (pure execution)."""
        return self.completion - self.first_dispatch

    @property
    def queue_delay(self) -> float:
        """Time the launch waited before its first block was placed."""
        return self.first_dispatch - self.arrival


class ExecutionTrace:
    """Container of all :class:`TBRecord` / :class:`KernelSpan` of one run.

    Provides the pairing and overlap queries the redundancy and fault
    analyses rely on.  Instances are append-only during simulation and
    behave as immutable afterwards.
    """

    def __init__(self, num_sms: int) -> None:
        if num_sms <= 0:
            raise SimulationError("trace requires at least one SM")
        self._num_sms = num_sms
        self._tb_records: List[TBRecord] = []
        self._spans: Dict[int, KernelSpan] = {}
        self._by_instance: Dict[int, List[TBRecord]] = {}
        self._by_sm: Dict[int, List[TBRecord]] = {}
        self._index: Optional[_IntervalIndex] = None

    # ------------------------------------------------------------------
    # construction (used by the simulator)
    # ------------------------------------------------------------------
    def add_tb(self, record: TBRecord) -> None:
        """Append a thread-block record (simulator-internal)."""
        if not (0 <= record.sm < self._num_sms):
            raise SimulationError(f"record references unknown SM {record.sm}")
        self._tb_records.append(record)
        self._by_instance.setdefault(record.instance_id, []).append(record)
        self._by_sm.setdefault(record.sm, []).append(record)
        self._index = None

    def add_span(self, span: KernelSpan) -> None:
        """Append a kernel span (simulator-internal)."""
        if span.instance_id in self._spans:
            raise SimulationError(
                f"duplicate span for instance {span.instance_id}"
            )
        self._spans[span.instance_id] = span

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_sms(self) -> int:
        """Number of SMs of the simulated GPU."""
        return self._num_sms

    @property
    def tb_records(self) -> Tuple[TBRecord, ...]:
        """All thread-block records, in completion order."""
        return tuple(self._tb_records)

    @property
    def spans(self) -> Tuple[KernelSpan, ...]:
        """All kernel spans, ordered by instance id."""
        return tuple(self._spans[k] for k in sorted(self._spans))

    def span(self, instance_id: int) -> KernelSpan:
        """Span of a specific launch."""
        try:
            return self._spans[instance_id]
        except KeyError:
            raise SimulationError(f"no span for instance {instance_id}") from None

    def blocks_of(self, instance_id: int) -> Tuple[TBRecord, ...]:
        """Thread-block records of one launch, sorted by block index."""
        records = self._by_instance.get(instance_id, [])
        return tuple(sorted(records, key=lambda r: r.tb_index))

    def blocks_on_sm(self, sm: int) -> Tuple[TBRecord, ...]:
        """Thread-block records that executed on SM ``sm``."""
        return tuple(self._by_sm.get(sm, []))

    @property
    def makespan(self) -> float:
        """Completion time of the last thread block (0 for empty traces)."""
        if not self._tb_records:
            return 0.0
        return max(r.end for r in self._tb_records)

    @property
    def instance_ids(self) -> Tuple[int, ...]:
        """Sorted launch instance ids present in the trace."""
        return tuple(sorted(self._spans))

    # ------------------------------------------------------------------
    # redundancy-oriented queries
    # ------------------------------------------------------------------
    def copies_of(self, logical_id: int) -> Dict[int, KernelSpan]:
        """Map ``copy_id -> span`` for all copies of one logical kernel."""
        return {
            s.copy_id: s for s in self._spans.values() if s.logical_id == logical_id
        }

    def logical_ids(self) -> Tuple[int, ...]:
        """Sorted logical computation ids present in the trace."""
        return tuple(sorted({s.logical_id for s in self._spans.values()}))

    def paired_blocks(self, logical_id: int,
                      copy_a: int = 0, copy_b: int = 1
                      ) -> Iterator[Tuple[TBRecord, TBRecord]]:
        """Yield ``(block of copy_a, block of copy_b)`` pairs by tb_index.

        This is the quantification domain of the paper's diversity claim:
        every redundant pair must execute on different SMs at different
        times.

        Raises:
            SimulationError: when the two copies have different grids, which
                would indicate a broken redundant-launch construction.
        """
        spans = self.copies_of(logical_id)
        if copy_a not in spans or copy_b not in spans:
            raise SimulationError(
                f"logical kernel {logical_id} lacks copies {copy_a}/{copy_b}"
            )
        blocks_a = self.blocks_of(spans[copy_a].instance_id)
        blocks_b = self.blocks_of(spans[copy_b].instance_id)
        if len(blocks_a) != len(blocks_b):
            raise SimulationError(
                f"logical kernel {logical_id}: copies have different grids "
                f"({len(blocks_a)} vs {len(blocks_b)} blocks)"
            )
        for ra, rb in zip(blocks_a, blocks_b):
            yield ra, rb

    # ------------------------------------------------------------------
    # interval queries (fault injection)
    # ------------------------------------------------------------------
    def _interval_index(self) -> _IntervalIndex:
        if self._index is None:
            self._index = _IntervalIndex(self._tb_records, self._by_sm)
        return self._index

    def stab_candidates(self, t: float,
                        sms: Optional[Iterable[int]] = None
                        ) -> List[TBRecord]:
        """A superset of the blocks executing at ``t`` (on ``sms``, if given).

        Callers filter the candidates with the exact predicate
        (:meth:`TBRecord.active_at`, or a fault's ``effect_on``).  On
        each SM the set holds the records that started in
        ``[t - longest, t]``, with ``longest`` the longest block duration
        there, widened to stay a superset under float rounding.
        O(log R + candidates) per SM.
        """
        window = self._interval_index().window
        if sms is None:
            return window[None].around(t)
        return [record for sm in sorted(set(sms)) if sm in window
                for record in window[sm].around(t)]

    def blocks_ending_after(self, sm: int, t: float) -> List[TBRecord]:
        """Blocks on SM ``sm`` with ``end > t``, in end order (exact)."""
        entry = self._interval_index().by_end.get(sm)
        if entry is None:
            return []
        ends, records = entry
        return records[bisect.bisect_right(ends, t):]

    def active_blocks_at(self, t: float,
                         sms: Optional[Iterable[int]] = None
                         ) -> List[TBRecord]:
        """Blocks executing at time ``t``, optionally filtered to ``sms``.

        Records keep trace (completion) order.
        """
        position = self._interval_index().position
        return sorted((r for r in self.stab_candidates(t, sms)
                       if r.active_at(t)),
                      key=lambda r: position[id(r)])

    def busy_intervals(self, sm: int) -> List[Tuple[float, float]]:
        """Merged busy intervals of one SM (for utilization reporting)."""
        intervals = sorted(
            (r.start, r.end) for r in self._by_sm.get(sm, []) if r.end > r.start
        )
        merged: List[Tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def sm_utilization(self, sm: int) -> float:
        """Fraction of the makespan during which ``sm`` had resident work."""
        total = self.makespan
        if total == 0:
            return 0.0
        busy = sum(end - start for start, end in self.busy_intervals(sm))
        return busy / total

    def gpu_busy_intervals(self) -> List[Tuple[float, float]]:
        """Merged intervals during which *any* SM had resident work.

        This is the wall-clock the GPU actually simulates/executes —
        host-side dispatch gaps between kernels are excluded, matching the
        "simulated time only for the kernel execution" metric of the
        paper's Figure 4 (GPGPU-Sim's total simulated cycles).
        """
        intervals = sorted(
            (r.start, r.end) for r in self._tb_records if r.end > r.start
        )
        merged: List[Tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    @property
    def busy_cycles(self) -> float:
        """Total GPU-active cycles (length of the busy-interval union)."""
        return sum(end - start for start, end in self.gpu_busy_intervals())

    def overlap_cycles(self, instance_a: int, instance_b: int) -> float:
        """Cycles during which two launches were simultaneously resident.

        Drives the paper's Figure 3 kernel taxonomy (short / heavy /
        friendly by achievable overlap).
        """
        def union(iid: int) -> List[Tuple[float, float]]:
            """Merged residency intervals of one launch's blocks."""
            intervals = sorted(
                (r.start, r.end)
                for r in self._by_instance.get(iid, [])
                if r.end > r.start
            )
            merged: List[Tuple[float, float]] = []
            for start, end in intervals:
                if merged and start <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], end))
                else:
                    merged.append((start, end))
            return merged

        overlap = 0.0
        for a_start, a_end in union(instance_a):
            for b_start, b_end in union(instance_b):
                lo = max(a_start, b_start)
                hi = min(a_end, b_end)
                if hi > lo:
                    overlap += hi - lo
        return overlap

    # ------------------------------------------------------------------
    # differential-testing support
    # ------------------------------------------------------------------
    def differences(self, other: "ExecutionTrace",
                    limit: int = 5) -> List[str]:
        """Describe where two traces diverge, bit-exactly.

        Used by the simulator equivalence suite: the production and
        reference cores must agree on every record and span, including
        order and exact float values.

        Args:
            other: trace to compare against.
            limit: maximum number of mismatch descriptions to collect.

        Returns:
            Human-readable mismatch descriptions; empty when the traces
            are identical.
        """
        diffs: List[str] = []
        if self._num_sms != other._num_sms:
            diffs.append(f"num_sms: {self._num_sms} != {other._num_sms}")
        if len(self._tb_records) != len(other._tb_records):
            diffs.append(
                f"tb_record count: {len(self._tb_records)} != "
                f"{len(other._tb_records)}"
            )
        for i, (a, b) in enumerate(zip(self._tb_records, other._tb_records)):
            if len(diffs) >= limit:
                return diffs
            if a != b:
                diffs.append(f"tb_record[{i}]: {a} != {b}")
        if sorted(self._spans) != sorted(other._spans):
            diffs.append(
                f"span instances: {sorted(self._spans)} != "
                f"{sorted(other._spans)}"
            )
            return diffs
        for iid in sorted(self._spans):
            if len(diffs) >= limit:
                break
            if self._spans[iid] != other._spans[iid]:
                diffs.append(
                    f"span[{iid}]: {self._spans[iid]} != {other._spans[iid]}"
                )
        return diffs

    def identical_to(self, other: "ExecutionTrace") -> bool:
        """True when both traces hold bit-identical records and spans,
        in the same order."""
        return not self.differences(other, limit=1)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency check (used heavily by tests).

        Verifies that every launch with blocks has a span, spans bracket
        their blocks, and no record escapes the SM range.

        Raises:
            SimulationError: on any inconsistency.
        """
        for iid, records in self._by_instance.items():
            if iid not in self._spans:
                raise SimulationError(f"instance {iid} has blocks but no span")
            span = self._spans[iid]
            first = min(r.start for r in records)
            last = max(r.end for r in records)
            if abs(first - span.first_dispatch) > 1e-6:
                raise SimulationError(
                    f"instance {iid}: span first_dispatch {span.first_dispatch} "
                    f"!= earliest block start {first}"
                )
            if abs(last - span.completion) > 1e-6:
                raise SimulationError(
                    f"instance {iid}: span completion {span.completion} "
                    f"!= latest block end {last}"
                )
            indices = sorted(r.tb_index for r in records)
            if indices != list(range(len(records))):
                raise SimulationError(
                    f"instance {iid}: block indices not contiguous: {indices[:8]}..."
                )
