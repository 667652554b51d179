"""Tests for the FTTI and the fault-handling timeline."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SafetyViolation
from repro.iso26262.fault_model import FaultHandlingTimeline, Ftti


class TestFtti:
    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            Ftti(0.0)
        with pytest.raises(ConfigurationError):
            Ftti(-5.0)

    def test_valid(self):
        assert Ftti(100.0).milliseconds == 100.0


class TestTimeline:
    def test_within_ftti(self):
        timeline = FaultHandlingTimeline(detected_at=10.0, handled_at=40.0)
        assert timeline.within(Ftti(50.0))
        assert not timeline.within(Ftti(30.0))

    def test_undetected_never_within(self):
        timeline = FaultHandlingTimeline(detected_at=None, handled_at=None)
        assert not timeline.detected
        assert not timeline.within(Ftti(1e9))

    def test_check_passes_in_budget(self):
        FaultHandlingTimeline(detected_at=5.0, handled_at=20.0).check(Ftti(25.0))

    def test_check_rejects_undetected(self):
        with pytest.raises(SafetyViolation, match="never detected"):
            FaultHandlingTimeline(None, None).check(Ftti(100.0))

    def test_check_rejects_unhandled(self):
        with pytest.raises(SafetyViolation, match="never handled"):
            FaultHandlingTimeline(detected_at=5.0, handled_at=None).check(Ftti(100.0))

    def test_check_rejects_late_handling(self):
        with pytest.raises(SafetyViolation, match="after the FTTI"):
            FaultHandlingTimeline(detected_at=5.0, handled_at=200.0).check(Ftti(100.0))

    def test_check_includes_context(self):
        with pytest.raises(SafetyViolation, match="braking"):
            FaultHandlingTimeline(None, None).check(Ftti(10.0), context="braking")

    def test_inconsistent_timelines_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultHandlingTimeline(detected_at=-1.0, handled_at=None)
        with pytest.raises(ConfigurationError):
            FaultHandlingTimeline(detected_at=None, handled_at=5.0)
        with pytest.raises(ConfigurationError):
            FaultHandlingTimeline(detected_at=10.0, handled_at=5.0)
