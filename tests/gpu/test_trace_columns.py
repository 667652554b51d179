"""The trace's block columns and the per-SM windows derived from them.

The simulator appends one row per thread block to the trace's columns;
the fault path asks the per-SM start windows for the rows that may be
executing at an instant.  Every query must answer exactly as a trace
rebuilt row by row through :meth:`ExecutionTrace.add_block` does, and as
the query's definition over a linear scan of the columns does.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.trace import BlockColumns, ExecutionTrace
from repro.redundancy.manager import RedundantKernelManager
from repro.workloads.rodinia import get_benchmark

POLICIES = ("default", "half", "srrs", "staggered")


@pytest.fixture(scope="module", params=POLICIES)
def simulated(request) -> ExecutionTrace:
    """A redundant hotspot + bfs trace on the paper's 6-SM GPU."""
    kernels = (get_benchmark("hotspot").kernels
               + get_benchmark("bfs").kernels)
    run = RedundantKernelManager(GPUConfig.gpgpusim_like(),
                                 request.param).run(list(kernels))
    return run.sim.trace


def _row(cols: BlockColumns, row: int) -> tuple:
    return tuple(getattr(cols, name)[row] for name in BlockColumns.__slots__)


def _rebuilt(trace: ExecutionTrace) -> ExecutionTrace:
    copy = ExecutionTrace(trace.num_sms)
    for row in range(trace.num_blocks):
        copy.add_block(*_row(trace.columns, row))
    for span in trace.spans:
        copy.add_span(span)
    return copy


def _probe_times(trace: ExecutionTrace):
    """Random instants, every block start, end and midpoint, and times
    at and past the end."""
    cols = trace.columns
    rng = random.Random(f"trace-columns:{trace.num_blocks}")
    times = {0.0, trace.makespan, trace.makespan + 1.0}
    times.update(rng.uniform(0.0, trace.makespan) for _ in range(32))
    for start, end in zip(cols.start, cols.end):
        times.update((start, end, (start + end) / 2))
    return sorted(times)


def _merged(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def test_columns_are_parallel_lists(simulated):
    cols = simulated.columns
    assert simulated.num_blocks > 0
    for name in BlockColumns.__slots__:
        assert len(getattr(cols, name)) == simulated.num_blocks


def test_rebuilt_through_add_block_answers_every_query_alike(simulated):
    rebuilt = _rebuilt(simulated)
    assert rebuilt.identical_to(simulated)
    assert rebuilt.makespan == simulated.makespan
    assert rebuilt.busy_cycles == simulated.busy_cycles
    for iid in simulated.instance_ids:
        assert rebuilt.rows_of(iid) == simulated.rows_of(iid)
    sms = range(simulated.num_sms)
    for sm in sms:
        assert rebuilt.rows_on_sm(sm) == simulated.rows_on_sm(sm)
    for t in _probe_times(simulated):
        assert rebuilt.window_rows(t) == simulated.window_rows(t)
        for sm in sms:
            assert (rebuilt.window_rows(t, (sm,))
                    == simulated.window_rows(t, (sm,)))


def test_every_query_matches_its_definition_over_the_columns(simulated):
    cols = simulated.columns
    rows = range(simulated.num_blocks)
    assert simulated.makespan == max(cols.end)
    for iid in simulated.instance_ids:
        assert simulated.rows_of(iid) == tuple(sorted(
            (row for row in rows if cols.instance_id[row] == iid),
            key=lambda row: cols.tb_index[row]))
    for sm in range(simulated.num_sms):
        on_sm = [row for row in rows if cols.sm[row] == sm]
        assert simulated.rows_on_sm(sm) == sorted(
            on_sm, key=lambda row: cols.start[row])
    assert simulated.busy_cycles == sum(
        end - start for start, end in _merged(
            (start, end) for start, end in zip(cols.start, cols.end)
            if end > start))


def test_the_per_sm_window_equals_a_linear_scan(simulated):
    cols = simulated.columns
    rows = range(simulated.num_blocks)

    def active(row, t):
        return cols.start[row] <= t < cols.end[row]

    for t in _probe_times(simulated):
        scan = [row for row in rows if active(row, t)]
        window = simulated.window_rows(t)
        assert len(set(window)) == len(window)
        assert sorted(row for row in window if active(row, t)) == scan
        for sm in range(simulated.num_sms):
            assert sorted(row for row in simulated.window_rows(t, (sm,))
                          if active(row, t)) == [
                row for row in scan if cols.sm[row] == sm]
            # a permanent fault filters the SM's rows by end > t
            assert sorted(row for row in simulated.rows_on_sm(sm)
                          if cols.end[row] > t) == [
                row for row in rows
                if cols.sm[row] == sm and cols.end[row] > t]


def test_the_windows_are_built_once_and_dropped_on_append():
    trace = ExecutionTrace(num_sms=2)
    trace.add_block(0, 0, 0, 0, 1, 0.0, 5.0, "t")
    first = trace.rows_on_sm(1)
    assert trace.rows_on_sm(1) is first
    assert trace.rows_on_sm(0) == []
    trace.add_block(0, 0, 0, 1, 0, 1.0, 6.0, "t")
    assert trace.rows_on_sm(1) == first == [0]
    assert trace.rows_on_sm(0) == [1]
    assert trace.window_rows(5.5) == [1]
    assert trace.makespan == 6.0


def test_add_block_keeps_the_per_block_checks():
    trace = ExecutionTrace(num_sms=2)
    with pytest.raises(SimulationError, match="end 1.0 precedes start 2.0"):
        trace.add_block(0, 0, 0, 0, 0, 2.0, 1.0)
    with pytest.raises(SimulationError, match="unknown SM 2"):
        trace.add_block(0, 0, 0, 0, 2, 0.0, 1.0)
    with pytest.raises(SimulationError, match="unknown SM -1"):
        trace.add_block(0, 0, 0, 0, -1, 0.0, 1.0)
    assert trace.num_blocks == 0
