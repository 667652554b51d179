"""Tests for StreamReport serialisation and rate intervals
(repro.streams.report)."""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import StatsError, StreamError
from repro.streams.report import (
    STREAM_RATE_METRICS,
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
        faults=StreamFaults(masked=1, detected=2, sdc=0),
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


class TestStreamFaults:
    @pytest.mark.parametrize("counters, written", [
        (dict(masked=0, detected=0, sdc=0),
         dict(injected=0, re_executions=0)),
        (dict(masked=1, detected=2, sdc=1),
         dict(injected=4, re_executions=2)),
    ], ids=["no-overlay", "every-outcome"])
    def test_injected_and_re_executions_are_derived(self, counters, written):
        assert StreamFaults(**counters).to_dict() == {**counters, **written}

    @pytest.mark.parametrize("edit, message", [
        ({"injected": 4}, "StreamReport.faults.injected must be 3, got 4"),
        ({"injected": 2}, "StreamReport.faults.injected must be 3, got 2"),
        ({"re_executions": 1},
         "StreamReport.faults.re_executions must be 2, got 1"),
    ], ids=["injected-exceeds-outcomes", "outcomes-exceed-injected",
            "detected-not-re-executed"])
    def test_counters_that_do_not_add_up_are_refused_on_load(self, edit,
                                                             message):
        payload = _report().to_dict()
        payload["faults"].update(edit)
        with pytest.raises(StreamError, match=f"^{re.escape(message)}$"):
            StreamReport.from_dict(payload)


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

    @pytest.mark.parametrize("faults", [
        None, {}, {"injected": 1}, "x",
        # counters that do not add up: a fault with two outcomes, and a
        # detected fault whose frame was not re-executed
        {"injected": 3, "masked": 2, "detected": 2, "sdc": 0,
         "re_executions": 2},
        {"injected": 3, "masked": 1, "detected": 2, "sdc": 0,
         "re_executions": 1},
    ])
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


class TestRateIntervals:
    def test_every_catalogue_metric_has_an_interval(self):
        report = _report()
        for metric in STREAM_RATE_METRICS:
            est = report.rate_interval(metric)
            assert est.metric == metric
            assert est.low <= est.rate <= est.high

    def test_zero_trials_is_a_stats_error(self):
        report = _report(faults=StreamFaults(masked=0, detected=0, sdc=0))
        with pytest.raises(StatsError):
            report.rate_interval("fault_sdc")

    def test_unknown_metric_is_a_stream_error(self):
        with pytest.raises(StreamError, match="unknown"):
            _report().rate_interval("throughput")

    def test_interval_is_a_pure_function_of_the_report(self):
        report = _report()
        digest = report.digest()
        a = report.rate_interval("fault_sdc").to_dict()
        b = report.rate_interval("fault_sdc").to_dict()
        assert a == b
        assert report.digest() == digest

    def test_fault_rate_absent_without_injections(self):
        report = _report(faults=StreamFaults(masked=0, detected=0, sdc=0))
        with pytest.raises(StatsError):
            report.rate_interval("fault_sdc")
        for metric in ("deadline_miss", "drop", "unsafe"):
            assert report.rate_interval(metric).metric == metric


class TestRateRows:
    def test_rows_are_the_catalogue_metrics(self):
        assert list(_report().rate_rows()) == list(STREAM_RATE_METRICS)

    @pytest.mark.parametrize("metric, rate", [
        ("deadline_miss", lambda r: r.miss_rate),
        ("drop", lambda r: r.drop_rate),
        ("unsafe", lambda r: 1.0 - r.safe_rate),
        ("fault_sdc", lambda r: r.faults.sdc / r.faults.injected),
    ], ids=["deadline_miss", "drop", "unsafe", "fault_sdc"])
    def test_counts_match_the_derived_rate(self, metric, rate):
        report = _report(faults=StreamFaults(masked=1, detected=2, sdc=1))
        events, trials = report.rate_rows()[metric]
        assert events / trials == pytest.approx(rate(report))
        assert report.rate_interval(metric).rate == pytest.approx(
            rate(report))

    def test_unsafe_events_never_exceed_the_frames(self):
        # 2 drops + 8 misses + 3 silent corruptions on 10 frames
        report = _report(deadline_misses=8,
                         faults=StreamFaults(masked=0, detected=0, sdc=3))
        assert report.rate_rows()["unsafe"] == (10, 10)
        assert report.safe_rate == 0.0
