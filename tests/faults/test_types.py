"""Tests for hardware fault descriptors and their effect model."""

from __future__ import annotations

import pytest

from repro.errors import FaultInjectionError
from repro.faults.types import PermanentSMFault, SEUFault, TransientCCF
from repro.gpu.trace import ExecutionTrace


def _tb(instance=0, copy=0, tb=0, sm=0, start=0.0, end=100.0):
    """A one-block trace, as the ``(columns, row)`` pair effect_on reads."""
    trace = ExecutionTrace(num_sms=8)
    trace.add_block(instance, 0, copy, tb, sm, start, end)
    return trace.columns, 0


class TestTransientCCF:
    def test_affects_active_block(self):
        fault = TransientCCF(time=50.0, fault_id=1, work_per_block=100.0)
        assert fault.effect_on(*_tb()) is not None

    def test_ignores_inactive_block(self):
        fault = TransientCCF(time=150.0, fault_id=1)
        assert fault.effect_on(*_tb()) is None

    def test_signature_quantises_phase(self):
        fault = TransientCCF(time=50.0, fault_id=1, work_per_block=100.0,
                             phase_quantum=1.0)
        # phase 0.5 of 100 work units = position 50 -> bucket 50
        sig = fault.effect_on(*_tb())
        assert sig == ("ccf", 1, 0, 50)

    def test_aligned_copies_get_identical_signatures(self):
        # the undetectable case: same phase at the fault instant
        fault = TransientCCF(time=50.0, fault_id=1, work_per_block=100.0)
        a = fault.effect_on(*_tb(instance=0, copy=0, sm=0))
        b = fault.effect_on(*_tb(instance=1, copy=1, sm=3))
        assert a == b  # SM does not matter for a chip-wide droop

    def test_staggered_copies_get_different_signatures(self):
        fault = TransientCCF(time=50.0, fault_id=1, work_per_block=100.0)
        a = fault.effect_on(*_tb(instance=0, start=0.0, end=100.0))
        b = fault.effect_on(*_tb(instance=1, start=40.0, end=140.0))
        assert a is not None and b is not None and a != b

    def test_sm_subset_restricts_reach(self):
        fault = TransientCCF(time=50.0, fault_id=1, sms=(2, 3))
        assert fault.effect_on(*_tb(sm=0)) is None
        assert fault.effect_on(*_tb(sm=2)) is not None

    def test_distinct_fault_ids_never_collide(self):
        a = TransientCCF(time=50.0, fault_id=1).effect_on(*_tb())
        b = TransientCCF(time=50.0, fault_id=2).effect_on(*_tb())
        assert a != b

    def test_invalid_parameters(self):
        with pytest.raises(FaultInjectionError):
            TransientCCF(time=-1.0, fault_id=0)
        with pytest.raises(FaultInjectionError):
            TransientCCF(time=0.0, fault_id=0, phase_quantum=0.0)

    def test_describe(self):
        assert "chip-wide" in TransientCCF(time=10.0, fault_id=0).describe()


class TestPermanentSMFault:
    def test_affects_blocks_on_faulty_sm(self):
        fault = PermanentSMFault(sm=2, fault_id=1)
        assert fault.effect_on(*_tb(sm=2)) is not None
        assert fault.effect_on(*_tb(sm=3)) is None

    def test_deterministic_corruption_identical_across_copies(self):
        # both copies on the faulty SM -> identical wrong output
        fault = PermanentSMFault(sm=2, fault_id=1)
        a = fault.effect_on(*_tb(instance=0, copy=0, sm=2, start=0, end=50))
        b = fault.effect_on(*_tb(instance=1, copy=1, sm=2, start=60, end=110))
        assert a == b

    def test_different_blocks_have_distinct_signatures(self):
        fault = PermanentSMFault(sm=2, fault_id=1)
        a = fault.effect_on(*_tb(tb=0, sm=2))
        b = fault.effect_on(*_tb(tb=1, sm=2))
        assert a != b

    def test_onset_time_respected(self):
        fault = PermanentSMFault(sm=0, fault_id=1, since=200.0)
        assert fault.effect_on(*_tb(start=0, end=100)) is None
        assert fault.effect_on(*_tb(start=150, end=250)) is not None

    def test_invalid_parameters(self):
        with pytest.raises(FaultInjectionError):
            PermanentSMFault(sm=-1, fault_id=0)
        with pytest.raises(FaultInjectionError):
            PermanentSMFault(sm=0, fault_id=0, since=-1.0)


class TestSEUFault:
    def test_strikes_active_block_on_sm(self):
        fault = SEUFault(sm=0, time=50.0, fault_id=1)
        assert fault.effect_on(*_tb(sm=0)) is not None
        assert fault.effect_on(*_tb(sm=1)) is None
        assert fault.effect_on(*_tb(sm=0, start=60, end=70)) is None

    def test_signature_unique_per_victim(self):
        fault = SEUFault(sm=0, time=50.0, fault_id=1)
        a = fault.effect_on(*_tb(instance=0, sm=0))
        b = fault.effect_on(*_tb(instance=1, sm=0))
        assert a != b

    def test_invalid_parameters(self):
        with pytest.raises(FaultInjectionError):
            SEUFault(sm=-1, time=0.0, fault_id=0)
        with pytest.raises(FaultInjectionError):
            SEUFault(sm=0, time=-1.0, fault_id=0)
