"""Tests for execution-trace rows and queries."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faults.types import SEUFault, TransientCCF
from repro.gpu.trace import ExecutionTrace, KernelSpan, intervals_overlap


def _add(trace, instance=0, logical=0, copy=0, tb=0, sm=0, start=0.0,
         end=10.0):
    trace.add_block(instance_id=instance, logical_id=logical, copy_id=copy,
                    tb_index=tb, sm=sm, start=start, end=end)


def _block(**fields):
    """A one-block trace, as the ``(columns, row)`` pair effect_on reads."""
    trace = ExecutionTrace(num_sms=2)
    _add(trace, **fields)
    return trace.columns, 0


def _active(trace, t, sms=None):
    """Rows executing at ``t`` (on ``sms``), from the per-SM windows."""
    cols = trace.columns
    return sorted(row for row in trace.window_rows(t, sms)
                  if cols.start[row] <= t < cols.end[row])


def _span(instance=0, logical=0, copy=0, arrival=0.0, first=0.0, done=10.0):
    return KernelSpan(instance_id=instance, logical_id=logical, copy_id=copy,
                      kernel_name="k", arrival=arrival, first_dispatch=first,
                      completion=done)


class TestIntervalsOverlap:
    @pytest.mark.parametrize("a,b,expected", [
        ((0, 10), (5, 15), True),
        ((0, 10), (10, 20), False),   # half-open: touching is no overlap
        ((5, 15), (0, 10), True),
        ((0, 1), (2, 3), False),
        ((0, 10), (3, 4), True),      # containment
    ])
    def test_cases(self, a, b, expected):
        assert intervals_overlap(*a, *b) is expected


class TestBlockRow:
    def test_duration_is_end_minus_start(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, start=2.0, end=5.0)
        assert trace.busy_cycles == pytest.approx(3.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(SimulationError):
            _add(ExecutionTrace(num_sms=1), start=5.0, end=2.0)

    def test_phase_at_midpoint(self):
        # phase 0.5 of 10 work units = position 5 -> bucket 5
        fault = TransientCCF(time=5.0, fault_id=0, work_per_block=10.0)
        assert fault.effect_on(*_block(start=0.0, end=10.0)) == (
            "ccf", 0, 0, 5)

    def test_phase_outside_interval_is_none(self):
        block = _block(start=1.0, end=10.0)
        assert TransientCCF(time=0.5, fault_id=0).effect_on(*block) is None
        # half-open
        assert TransientCCF(time=10.0, fault_id=0).effect_on(*block) is None

    def test_active_at(self):
        block = _block(start=1.0, end=2.0)
        assert SEUFault(sm=0, time=1.0, fault_id=0).effect_on(*block)
        assert SEUFault(sm=0, time=1.5, fault_id=0).effect_on(*block)
        assert SEUFault(sm=0, time=2.0, fault_id=0).effect_on(*block) is None

    def test_overlaps(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, instance=0, start=0, end=10)
        _add(trace, instance=1, start=5, end=15)
        _add(trace, instance=2, start=10, end=15)
        assert trace.overlap_cycles(0, 1) == pytest.approx(5.0)
        assert trace.overlap_cycles(0, 2) == 0.0


class TestKernelSpan:
    def test_derived_times(self):
        span = _span(arrival=1.0, first=3.0, done=10.0)
        assert span.latency == pytest.approx(9.0)
        assert span.exec_time == pytest.approx(7.0)
        assert span.queue_delay == pytest.approx(2.0)


class TestExecutionTrace:
    def _populated(self) -> ExecutionTrace:
        trace = ExecutionTrace(num_sms=2)
        _add(trace, instance=0, tb=0, sm=0, start=0, end=10)
        _add(trace, instance=0, tb=1, sm=1, start=0, end=12)
        _add(trace, instance=1, copy=1, tb=0, sm=1, start=20, end=30)
        _add(trace, instance=1, copy=1, tb=1, sm=0, start=20, end=28)
        trace.add_span(_span(instance=0, first=0, done=12))
        trace.add_span(_span(instance=1, copy=1, arrival=15, first=20, done=30))
        return trace

    def test_makespan(self):
        assert self._populated().makespan == pytest.approx(30.0)

    def test_empty_trace_makespan_zero(self):
        assert ExecutionTrace(num_sms=1).makespan == 0.0

    def test_unknown_sm_rejected(self):
        trace = ExecutionTrace(num_sms=1)
        with pytest.raises(SimulationError):
            _add(trace, sm=5)

    def test_duplicate_span_rejected(self):
        trace = ExecutionTrace(num_sms=1)
        trace.add_span(_span())
        with pytest.raises(SimulationError):
            trace.add_span(_span())

    def test_rows_of_sorted_by_index(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, tb=1, start=5, end=6)
        _add(trace, tb=0, start=0, end=1)
        assert trace.rows_of(0) == (1, 0)
        tb_index = trace.columns.tb_index
        assert [tb_index[row] for row in trace.rows_of(0)] == [0, 1]

    def test_copies_of_and_logical_ids(self):
        trace = self._populated()
        copies = trace.copies_of(0)
        assert set(copies) == {0, 1}
        assert trace.logical_ids() == (0,)

    def test_paired_rows_pair_by_index(self):
        trace = self._populated()
        cols = trace.columns
        pairs = list(trace.paired_rows(0))
        assert len(pairs) == 2
        for a, b in pairs:
            assert cols.tb_index[a] == cols.tb_index[b]
            assert cols.copy_id[a] == 0 and cols.copy_id[b] == 1

    def test_paired_rows_missing_copy_raises(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace)
        trace.add_span(_span())
        with pytest.raises(SimulationError):
            list(trace.paired_rows(0))

    def test_paired_rows_mismatched_grids_raise(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, instance=0, tb=0)
        _add(trace, instance=1, copy=1, tb=0)
        _add(trace, instance=1, copy=1, tb=1)
        trace.add_span(_span(instance=0))
        trace.add_span(_span(instance=1, copy=1))
        with pytest.raises(SimulationError):
            list(trace.paired_rows(0))

    def test_window_rows_at(self):
        trace = self._populated()
        assert _active(trace, 5.0) == [0, 1]
        assert _active(trace, 25.0) == [2, 3]
        assert _active(trace, 15.0) == []
        assert _active(trace, 5.0, sms=[0]) == [0]

    def test_rows_on_sm_in_start_order(self):
        trace = self._populated()
        assert trace.rows_on_sm(0) == [0, 3]
        assert trace.rows_on_sm(1) == [1, 2]

    def test_busy_intervals_merge(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, tb=0, start=0, end=10)
        _add(trace, tb=1, start=5, end=15)
        _add(trace, tb=2, start=20, end=25)
        assert trace.busy_intervals(0) == [(0, 15), (20, 25)]

    def test_sm_utilization(self):
        trace = self._populated()
        # SM0 busy [0,10] and [20,28] = 18 of makespan 30
        assert trace.sm_utilization(0) == pytest.approx(18 / 30)

    def test_gpu_busy_cycles_excludes_gaps(self):
        trace = self._populated()
        # busy union: [0,12] and [20,30] -> 22, gap [12,20) excluded
        assert trace.busy_cycles == pytest.approx(22.0)

    def test_overlap_cycles(self):
        trace = ExecutionTrace(num_sms=2)
        _add(trace, instance=0, tb=0, sm=0, start=0, end=10)
        _add(trace, instance=1, tb=0, sm=1, start=6, end=16)
        assert trace.overlap_cycles(0, 1) == pytest.approx(4.0)
        assert trace.overlap_cycles(1, 0) == pytest.approx(4.0)

    def test_validate_passes_for_consistent_trace(self):
        self._populated().validate()

    def test_validate_catches_missing_span(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace)
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validate_catches_noncontiguous_blocks(self):
        trace = ExecutionTrace(num_sms=1)
        _add(trace, tb=0, start=0, end=10)
        _add(trace, tb=2, start=0, end=10)
        trace.add_span(_span(first=0, done=10))
        with pytest.raises(SimulationError):
            trace.validate()

    def test_span_lookup_unknown_instance(self):
        with pytest.raises(SimulationError):
            ExecutionTrace(num_sms=1).span(99)
