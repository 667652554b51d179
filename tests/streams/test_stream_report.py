"""Tests for StreamReport serialisation (repro.streams.report)."""

from __future__ import annotations

import json

import pytest

from repro.errors import StreamError
from repro.streams.report import (
    StreamFaults,
    StreamReport,
    StreamWindows,
    quantile_key,
)


def _report(**kwargs) -> StreamReport:
    defaults = dict(
        label="t",
        policy="srrs",
        spec_hash="abc",
        seed=1,
        frames=10,
        completed=8,
        dropped=2,
        deadline_ms=5.0,
        deadline_misses=1,
        faults=StreamFaults(injected=3, masked=1, detected=2, sdc=0,
                            re_executions=2),
        windows=StreamWindows(windows=2.0, window_ms=50.0, fps_min=70.0,
                              fps_mean=80.0, fps_max=90.0, util_min=0.4,
                              util_mean=0.5, util_max=0.6),
        latency_ms={"count": 8.0, "min": 1.0, "max": 2.0, "mean": 1.5,
                    "std": 0.2, "p50": 1.4, "p99": 1.9},
        wait_ms={"count": 8.0, "min": 0.0, "max": 0.5, "mean": 0.1,
                 "std": 0.05},
        service_ms={"hotspot": 1.0},
        elapsed_ms=100.0,
        throughput_fps=80.0,
        utilisation=0.5,
    )
    defaults.update(kwargs)
    return StreamReport(**defaults)


class TestQuantileKey:
    def test_canonical_forms(self):
        assert quantile_key(0.5) == "p50"
        assert quantile_key(0.99) == "p99"
        assert quantile_key(0.999) == "p99.9"


class TestDerived:
    def test_rates(self):
        report = _report()
        assert report.deadline_met == 7
        assert report.miss_rate == pytest.approx(1 / 8)
        assert report.drop_rate == pytest.approx(0.2)
        # unsafe = 2 drops + 1 miss + 0 sdc
        assert report.safe_rate == pytest.approx(0.7)

    def test_summary_line(self):
        text = _report().summary()
        assert "frames=10" in text and "dropped=2" in text
        assert "p99=" in text


class TestSerialisation:
    def test_round_trip(self):
        report = _report()
        rebuilt = StreamReport.from_dict(report.to_dict())
        assert rebuilt == report
        assert rebuilt.digest() == report.digest()

    def test_round_trip_through_json_text(self):
        report = _report()
        rebuilt = StreamReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.digest() == report.digest()

    def test_digest_sensitivity(self):
        assert _report().digest() != _report(deadline_misses=2).digest()
        assert _report().digest() != _report(seed=2).digest()

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(StreamError):
            StreamReport.from_dict([1, 2, 3])

    def test_from_dict_rejects_missing_keys(self):
        payload = _report().to_dict()
        del payload["faults"]
        with pytest.raises(StreamError) as excinfo:
            StreamReport.from_dict(payload)
        assert "faults" in str(excinfo.value)

    @pytest.mark.parametrize("faults", [None, {}, {"injected": 1}, "x"])
    def test_from_dict_rejects_malformed_faults_payload(self, faults):
        # a truncated or hand-edited report must fail with StreamError,
        # not a raw KeyError/TypeError (the CLI only catches ReproError)
        payload = _report().to_dict()
        payload["faults"] = faults
        with pytest.raises(StreamError):
            StreamReport.from_dict(payload)

    def test_no_per_frame_records_in_dict(self):
        payload = _report(frames=10**7).to_dict()

        def sizes(node):
            if isinstance(node, dict):
                yield len(node)
                for value in node.values():
                    yield from sizes(value)
            elif isinstance(node, (list, tuple)):
                yield len(node)

        assert max(sizes(payload)) < 50
