"""The trace's block columns and the record view derived from them.

The simulator appends one row per thread block to the trace's columns;
the record-level queries hand out :class:`TBRecord` objects built from
those rows on first use.  Every query must answer exactly as a trace
rebuilt record by record through :meth:`ExecutionTrace.add_tb` does, and
as the query's definition over the plain record list does.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.trace import ExecutionTrace, TBRecord
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


def _rebuilt(trace: ExecutionTrace) -> ExecutionTrace:
    copy = ExecutionTrace(trace.num_sms)
    for record in trace.tb_records:
        copy.add_tb(record)
    for span in trace.spans:
        copy.add_span(span)
    return copy


def _probe_times(trace: ExecutionTrace):
    """Block starts, ends and midpoints, and times at and past the end."""
    times = {0.0, trace.makespan, trace.makespan + 1.0}
    for record in trace.tb_records[::7]:
        times.update((record.start, record.end,
                      (record.start + record.end) / 2))
    return sorted(times)


def _merged(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def test_columns_hold_the_records_row_by_row(simulated):
    cols = simulated.columns
    records = simulated.tb_records
    assert simulated.num_blocks == len(records) > 0
    for field in dataclasses.fields(TBRecord):
        assert getattr(cols, field.name) == [
            getattr(r, field.name) for r in records]


def test_rebuilt_through_add_tb_answers_every_query_alike(simulated):
    rebuilt = _rebuilt(simulated)
    assert rebuilt.identical_to(simulated)
    assert rebuilt.tb_records == simulated.tb_records
    assert rebuilt.makespan == simulated.makespan
    assert rebuilt.busy_cycles == simulated.busy_cycles
    for iid in simulated.instance_ids:
        assert rebuilt.blocks_of(iid) == simulated.blocks_of(iid)
        assert rebuilt.rows_of(iid) == simulated.rows_of(iid)
    sms = range(simulated.num_sms)
    for sm in sms:
        assert rebuilt.blocks_on_sm(sm) == simulated.blocks_on_sm(sm)
        assert rebuilt.busy_intervals(sm) == simulated.busy_intervals(sm)
    for t in _probe_times(simulated):
        assert rebuilt.stab_candidates(t) == simulated.stab_candidates(t)
        assert (rebuilt.active_blocks_at(t)
                == simulated.active_blocks_at(t))
        for sm in sms:
            assert (rebuilt.stab_candidates(t, (sm,))
                    == simulated.stab_candidates(t, (sm,)))
            assert (rebuilt.blocks_ending_after(sm, t)
                    == simulated.blocks_ending_after(sm, t))
            assert (rebuilt.active_blocks_at(t, (sm,))
                    == simulated.active_blocks_at(t, (sm,)))


def test_every_query_matches_its_definition_over_the_records(simulated):
    records = simulated.tb_records
    assert simulated.makespan == max(r.end for r in records)
    for iid in simulated.instance_ids:
        assert simulated.blocks_of(iid) == tuple(sorted(
            (r for r in records if r.instance_id == iid),
            key=lambda r: r.tb_index))
    for sm in range(simulated.num_sms):
        on_sm = [r for r in records if r.sm == sm]
        assert simulated.blocks_on_sm(sm) == tuple(on_sm)
        assert simulated.busy_intervals(sm) == _merged(
            (r.start, r.end) for r in on_sm if r.end > r.start)
    assert simulated.busy_cycles == sum(
        end - start for start, end in _merged(
            (r.start, r.end) for r in records if r.end > r.start))
    for t in _probe_times(simulated):
        active = [r for r in records if r.active_at(t)]
        assert set(simulated.stab_candidates(t)) >= set(active)
        assert simulated.active_blocks_at(t) == active
        for sm in range(simulated.num_sms):
            assert simulated.active_blocks_at(t, (sm,)) == [
                r for r in active if r.sm == sm]
            assert simulated.blocks_ending_after(sm, t) == sorted(
                (r for r in records if r.sm == sm and r.end > t),
                key=lambda r: r.end)


def test_the_record_view_is_built_once_and_dropped_on_append():
    trace = ExecutionTrace(num_sms=2)
    trace.add_block(0, 0, 0, 0, 1, 0.0, 5.0, "t")
    first = trace.tb_records
    assert trace.tb_records[0] is first[0]
    trace.add_block(0, 0, 0, 1, 0, 1.0, 6.0, "t")
    assert trace.tb_records[0] == first[0]
    assert [r.tb_index for r in trace.blocks_on_sm(0)] == [1]
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

