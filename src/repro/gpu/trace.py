"""Execution traces produced by the GPU simulator.

The diversity argument of the paper (Section IV-C) quantifies over *where*
and *when* each thread block of each redundant kernel copy executed.  The
trace captures exactly that: one row per thread block with its SM and
execution interval, plus one :class:`KernelSpan` per kernel launch.

Thread blocks are stored as columns (:class:`BlockColumns`): parallel
lists, one entry per block in completion order, so the simulator appends
a block without building an object for it, and every query (makespan,
busy cycles, validation, output signatures, diversity, fault
classification) reads the lists directly.  A block is named by its row,
an index into the columns.

Traces are the single source of truth consumed by:

* :mod:`repro.redundancy.diversity` — SM-disjointness and time-slack metrics,
* :mod:`repro.faults` — fault-injection outcome classification,
* :mod:`repro.analysis` — overlap measurement and report generation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["KernelSpan", "BlockColumns", "ExecutionTrace",
           "intervals_overlap"]


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


def _merged(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of ``(start, end)`` intervals, as sorted disjoint intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _row_tuples(cols: "BlockColumns") -> Iterator[Tuple]:
    """Every row of ``cols`` as the tuple of its column values."""
    return zip(*(getattr(cols, name) for name in BlockColumns.__slots__))


class _SMWindow:
    """One SM's rows sorted by start, their starts, and the longest
    block duration among them.

    A block active at ``t`` started at or before ``t`` and at most one
    longest duration earlier, so two bisections bound every stabbing
    query.
    """

    __slots__ = ("rows", "starts", "longest")

    def __init__(self, rows: List[int], start: List[float],
                 end: List[float]) -> None:
        # stable: equal starts keep completion order
        self.rows = sorted(rows, key=start.__getitem__)
        self.starts = [start[row] for row in self.rows]
        self.longest = max((end[row] - start[row] for row in self.rows),
                           default=0.0)


@dataclass(frozen=True)
class KernelSpan:
    """Summary of one kernel launch's execution.

    Attributes:
        instance_id / logical_id / copy_id / tag: identity (see
        :class:`BlockColumns`).
        arrival: time the launch reached the GPU kernel scheduler.
        first_dispatch: time its first block started on an SM.
        completion: time its last block finished.
    """

    instance_id: int
    logical_id: int
    copy_id: int
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


class BlockColumns:
    """The thread blocks of one trace as parallel lists.

    Entry ``i`` of every list belongs to block ``i`` (row ``i``) in
    completion order.  Filled by :meth:`ExecutionTrace.add_block`;
    read-only everywhere else.

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

    __slots__ = ("instance_id", "logical_id", "copy_id", "tb_index", "sm",
                 "start", "end", "tag")

    def __init__(self) -> None:
        self.instance_id: List[int] = []
        self.logical_id: List[int] = []
        self.copy_id: List[int] = []
        self.tb_index: List[int] = []
        self.sm: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.tag: List[str] = []


class _Views:
    """Structures derived from a trace's columns and spans, each built on
    first use and dropped whenever a block or span is added.

    * ``rows``: instance id -> its rows, sorted by block index;
    * ``windows``: SM -> its :class:`_SMWindow`, in SM order;
    * ``copies``: logical id -> ``{copy_id: span}``.
    """

    __slots__ = ("rows", "windows", "copies")

    def __init__(self) -> None:
        self.rows: Optional[Dict[int, Tuple[int, ...]]] = None
        self.windows: Optional[Dict[int, _SMWindow]] = None
        self.copies: Optional[Dict[int, Dict[int, KernelSpan]]] = None


class ExecutionTrace:
    """All thread blocks (as :class:`BlockColumns`) and
    :class:`KernelSpan` of one run.

    Provides the pairing and overlap queries the redundancy and fault
    analyses rely on.  Instances are append-only during simulation and
    behave as immutable afterwards.
    """

    def __init__(self, num_sms: int) -> None:
        if num_sms <= 0:
            raise SimulationError("trace requires at least one SM")
        self._num_sms = num_sms
        self._cols = BlockColumns()
        self._spans: Dict[int, KernelSpan] = {}
        self._views: Optional[_Views] = None

    # ------------------------------------------------------------------
    # construction (used by the simulator)
    # ------------------------------------------------------------------
    def add_block(self, instance_id: int, logical_id: int, copy_id: int,
                  tb_index: int, sm: int, start: float, end: float,
                  tag: str = "") -> None:
        """Append one thread-block row (the simulator's per-block path).

        Raises:
            SimulationError: when ``end`` precedes ``start`` or ``sm`` is
                not an SM of the trace's GPU.
        """
        if end < start:
            raise SimulationError(
                f"TB {tb_index} of instance {instance_id}: "
                f"end {end} precedes start {start}"
            )
        if not 0 <= sm < self._num_sms:
            raise SimulationError(f"block references unknown SM {sm}")
        cols = self._cols
        cols.instance_id.append(instance_id)
        cols.logical_id.append(logical_id)
        cols.copy_id.append(copy_id)
        cols.tb_index.append(tb_index)
        cols.sm.append(sm)
        cols.start.append(start)
        cols.end.append(end)
        cols.tag.append(tag)
        self._views = None

    def add_span(self, span: KernelSpan) -> None:
        """Append a kernel span (simulator-internal)."""
        if span.instance_id in self._spans:
            raise SimulationError(
                f"duplicate span for instance {span.instance_id}"
            )
        self._spans[span.instance_id] = span
        self._views = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_sms(self) -> int:
        """Number of SMs of the simulated GPU."""
        return self._num_sms

    @property
    def columns(self) -> BlockColumns:
        """The thread-block rows as parallel lists (read-only)."""
        return self._cols

    @property
    def num_blocks(self) -> int:
        """Number of thread blocks (rows) in the trace."""
        return len(self._cols.end)

    def _view(self) -> _Views:
        views = self._views
        if views is None:
            views = self._views = _Views()
        return views

    def _rows(self) -> Dict[int, Tuple[int, ...]]:
        views = self._view()
        if views.rows is None:
            groups: Dict[int, List[int]] = {}
            for row, iid in enumerate(self._cols.instance_id):
                groups.setdefault(iid, []).append(row)
            # stable: equal block indices keep completion order
            key = self._cols.tb_index.__getitem__
            views.rows = {iid: tuple(sorted(group, key=key))
                          for iid, group in groups.items()}
        return views.rows

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

    def rows_of(self, instance_id: int) -> Tuple[int, ...]:
        """Rows of one launch's blocks (indices into :attr:`columns`),
        sorted by block index."""
        return self._rows().get(instance_id, ())

    @property
    def makespan(self) -> float:
        """Completion time of the last thread block (0 for empty traces)."""
        return max(self._cols.end, default=0.0)

    @property
    def instance_ids(self) -> Tuple[int, ...]:
        """Sorted launch instance ids present in the trace."""
        return tuple(sorted(self._spans))

    # ------------------------------------------------------------------
    # redundancy-oriented queries
    # ------------------------------------------------------------------
    def _copies(self) -> Dict[int, Dict[int, KernelSpan]]:
        views = self._view()
        if views.copies is None:
            copies: Dict[int, Dict[int, KernelSpan]] = {}
            for s in self._spans.values():
                copies.setdefault(s.logical_id, {})[s.copy_id] = s
            views.copies = copies
        return views.copies

    def copies_of(self, logical_id: int) -> Dict[int, KernelSpan]:
        """Map ``copy_id -> span`` for all copies of one logical kernel."""
        return dict(self._copies().get(logical_id, {}))

    def logical_ids(self) -> Tuple[int, ...]:
        """Sorted logical computation ids present in the trace."""
        return tuple(sorted(self._copies()))

    def paired_rows(self, logical_id: int, copy_a: int = 0, copy_b: int = 1
                    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(row of copy_a, row of copy_b)`` pairs by block index.

        This is the quantification domain of the paper's diversity claim:
        every redundant pair must execute on different SMs at different
        times.

        Raises:
            SimulationError: when a copy is missing, or the two copies have
                different grids (a broken redundant-launch construction).
        """
        spans = self._copies().get(logical_id, {})
        if copy_a not in spans or copy_b not in spans:
            raise SimulationError(
                f"logical kernel {logical_id} lacks copies {copy_a}/{copy_b}"
            )
        rows_a = self.rows_of(spans[copy_a].instance_id)
        rows_b = self.rows_of(spans[copy_b].instance_id)
        if len(rows_a) != len(rows_b):
            raise SimulationError(
                f"logical kernel {logical_id}: copies have different grids "
                f"({len(rows_a)} vs {len(rows_b)} blocks)"
            )
        return zip(rows_a, rows_b)

    # ------------------------------------------------------------------
    # interval queries (fault injection)
    # ------------------------------------------------------------------
    def _windows(self) -> Dict[int, _SMWindow]:
        views = self._view()
        if views.windows is None:
            groups: Dict[int, List[int]] = {}
            for row, sm in enumerate(self._cols.sm):
                groups.setdefault(sm, []).append(row)
            start, end = self._cols.start, self._cols.end
            views.windows = {sm: _SMWindow(groups[sm], start, end)
                             for sm in sorted(groups)}
        return views.windows

    def rows_on_sm(self, sm: int) -> List[int]:
        """Rows of the blocks that executed on SM ``sm``, in start order
        (read-only)."""
        window = self._windows().get(sm)
        return [] if window is None else window.rows

    def window_rows(self, t: float,
                    sms: Optional[Iterable[int]] = None) -> List[int]:
        """A superset of the rows executing at ``t`` on ``sms`` (every SM
        when None), SM by SM in start order.

        Callers filter the rows with the exact predicate (``start <= t <
        end``, or a fault's ``effect_on``).  On each SM the set holds the
        rows that started in ``[t - longest, t]``, with ``longest`` the
        longest block duration there, widened to stay a superset under
        float rounding.  O(log R + candidates) per SM.
        """
        windows = self._windows()
        chosen = (windows.values() if sms is None else
                  [windows[sm] for sm in sorted(set(sms)) if sm in windows])
        rows: List[int] = []
        for window in chosen:
            starts = window.starts
            hi = bisect.bisect_right(starts, t)
            if hi:
                longest = window.longest
                bound = t - longest - _WINDOW_SLACK * (abs(t) + longest)
                lo = bisect.bisect_left(starts, bound, 0, hi)
                rows += window.rows[lo:hi]
        return rows

    def gpu_busy_intervals(self) -> List[Tuple[float, float]]:
        """Merged intervals during which *any* SM had resident work.

        This is the wall-clock the GPU actually simulates/executes —
        host-side dispatch gaps between kernels are excluded, matching the
        "simulated time only for the kernel execution" metric of the
        paper's Figure 4 (GPGPU-Sim's total simulated cycles).
        """
        cols = self._cols
        return _merged([(start, end) for start, end in
                        zip(cols.start, cols.end) if end > start])

    @property
    def busy_cycles(self) -> float:
        """Total GPU-active cycles (length of the busy-interval union)."""
        return sum(end - start for start, end in self.gpu_busy_intervals())

    def overlap_cycles(self, instance_a: int, instance_b: int) -> float:
        """Cycles during which two launches were simultaneously resident.

        Drives the paper's Figure 3 kernel taxonomy (short / heavy /
        friendly by achievable overlap).
        """
        start, end = self._cols.start, self._cols.end

        def union(iid: int) -> List[Tuple[float, float]]:
            """Merged residency intervals of one launch's blocks."""
            return _merged([(start[row], end[row]) for row in self.rows_of(iid)
                            if end[row] > start[row]])

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
        reference cores must agree on every block row and span,
        including order and exact float values.  A row is described as
        the tuple of its column values, in :class:`BlockColumns` order.

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
        if self.num_blocks != other.num_blocks:
            diffs.append(
                f"block count: {self.num_blocks} != {other.num_blocks}"
            )
        for i, (a, b) in enumerate(zip(_row_tuples(self._cols),
                                       _row_tuples(other._cols))):
            if len(diffs) >= limit:
                return diffs
            if a != b:
                diffs.append(f"block[{i}]: {a} != {b}")
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
        """True when both traces hold bit-identical block rows and spans,
        in the same order."""
        return not self.differences(other, limit=1)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency check (used heavily by tests).

        Verifies that every launch with blocks has a span, spans bracket
        their blocks, and each launch's block indices are ``0..n-1``
        (:meth:`add_block` already refused blocks that end before they
        start or escape the SM range).

        Raises:
            SimulationError: on any inconsistency.
        """
        start, end, tb = self._cols.start, self._cols.end, self._cols.tb_index
        for iid, rows in self._rows().items():
            if iid not in self._spans:
                raise SimulationError(f"instance {iid} has blocks but no span")
            span = self._spans[iid]
            first = min([start[row] for row in rows])
            last = max([end[row] for row in rows])
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
            indices = [tb[row] for row in rows]
            if indices != list(range(len(rows))):
                raise SimulationError(
                    f"instance {iid}: block indices not contiguous: {indices[:8]}..."
                )
