"""Generated reports round-trip through their JSON form (hypothesis).

For small bounded strategies over :class:`StreamReport`,
:class:`PlatformReport` and :class:`CampaignReport` (uniform, stratified
and importance-sampled, partial folds among them):
``from_dict(to_dict(report)) == report``, the
JSON text trip rebuilds an equal report, and ``digest()`` survives both.
Strategies mix JSON ints into float fields, which must keep their exact
JSON form.  A report loads only in its own canonical form: a payload
with any one leaf changed to another value of the same JSON type is
either refused with the report's own error type, or loads to a report
whose ``to_dict()`` is exactly the edited payload.  ``repro compare``
resolves each payload to its own report kind only, and a report
compared against itself has no significant rate.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultInjectionError,
    PlatformError,
    StatsError,
    StreamError,
)
from repro.faults.report import (
    CLASS_NAME_KINDS,
    SAMPLING_SCHEMA,
    CampaignReport,
    SamplingMetadata,
)
from repro.platform.report import (
    PlatformDevice,
    PlatformReport,
    PlatformTask,
)
from repro.stats.compare import _kind_and_rows, compare_artifacts
from repro.streams.report import StreamFaults, StreamReport, StreamWindows

_SETTINGS = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TEXT = st.text(alphabet="ab-é", max_size=4)
_COUNT = st.integers(0, 10_000)
_ASIL = st.sampled_from(["QM", "A", "B", "C", "D"])


def _number(low: float, high: float) -> st.SearchStrategy:
    """A float in ``[low, high]``, sometimes given as a JSON int."""
    return st.one_of(
        st.floats(min_value=low, max_value=high, allow_nan=False),
        st.integers(min_value=int(low), max_value=int(high)),
    )


def _all_numbers(cls) -> st.SearchStrategy:
    return st.builds(cls, **{f.name: _number(0.0, 1e5) for f in fields(cls)})


_TABLE = st.dictionaries(_TEXT, _number(0.0, 1e4), max_size=4)


_STREAM_FAULTS = st.builds(StreamFaults, masked=_COUNT, detected=_COUNT,
                           sdc=_COUNT)


@st.composite
def stream_reports(draw) -> StreamReport:
    frames = draw(_COUNT)
    completed = draw(st.integers(0, frames))
    return StreamReport(
        label=draw(_TEXT),
        policy=draw(_TEXT),
        spec_hash=draw(_TEXT),
        seed=draw(st.integers(0, 2**31)),
        frames=frames,
        completed=completed,
        dropped=frames - completed,
        deadline_ms=draw(_number(0.1, 1e3)),
        deadline_misses=draw(st.integers(0, completed)),
        faults=draw(_STREAM_FAULTS),
        windows=draw(_all_numbers(StreamWindows)),
        latency_ms=draw(_TABLE),
        wait_ms=draw(_TABLE),
        service_ms=draw(_TABLE),
        elapsed_ms=draw(_number(0.0, 1e6)),
        throughput_fps=draw(_number(0.0, 1e4)),
        utilisation=draw(_number(0.0, 1.0)),
    )


@st.composite
def _platform_tasks(draw, devices) -> PlatformTask:
    """Any task :class:`PlatformTask` accepts: its counters add up as a
    stream's do (every frame is completed or dropped, misses are among
    the completed frames, and every detected or silent fault was
    injected); :func:`test_a_task_loads_only_when_its_counters_add_up`
    draws the counters independently."""
    frames = draw(_COUNT)
    completed = draw(st.integers(0, frames))
    faults = draw(_STREAM_FAULTS)
    return PlatformTask(
        device=draw(st.sampled_from(devices)),
        asil=draw(_ASIL),
        utilisation=draw(_number(0.0, 1.0)),
        service_ms=draw(_number(0.0, 10.0)),
        protocol_ms=draw(_number(0.0, 10.0)),
        frames=frames,
        completed=completed,
        dropped=frames - completed,
        deadline_misses=draw(st.integers(0, completed)),
        faults_injected=faults.injected,
        faults_detected=faults.detected,
        faults_sdc=faults.sdc,
        throughput_fps=draw(_number(0.0, 1e3)),
        elapsed_ms=draw(_number(0.0, 1e6)),
        digest=draw(st.text(alphabet="0123456789abcdef", min_size=16,
                            max_size=16)),
    )


@st.composite
def platform_reports(draw) -> PlatformReport:
    """Only the device specs and the tasks are stored: the rest of the
    report is derived from the tasks."""
    names = draw(st.lists(_TEXT, unique=True, max_size=3))
    tasks = (draw(st.dictionaries(_TEXT, _platform_tasks(names),
                                  max_size=3)) if names else {})
    devices = {name: draw(st.builds(PlatformDevice, gpu=_TEXT,
                                    preset=st.none() | _TEXT,
                                    capacity=_number(0.5, 1.0)))
               for name in names}
    return PlatformReport(label=draw(_TEXT), spec_hash=draw(_TEXT),
                          policy=draw(_TEXT), devices=devices, tasks=tasks)


_WEIGHTS = st.fixed_dictionaries(
    {kind: st.integers(0, 5) for kind in CLASS_NAME_KINDS.values()}
).filter(lambda weights: sum(weights.values()) > 0)

# a fold that misses a kind is a partial fold: its weighted_rates is null
campaign_reports = st.builds(
    CampaignReport,
    policy=_TEXT,
    by_kind=st.dictionaries(
        st.sampled_from(sorted(CLASS_NAME_KINDS)),
        st.dictionaries(st.sampled_from(["masked", "detected", "sdc"]),
                        st.integers(0, 1000), max_size=3),
        max_size=3),
    sdc_samples=st.lists(_TEXT, max_size=5),
    sampling=st.sampled_from([None, "stratified", "importance"]).flatmap(
        lambda method: st.none() if method is None else st.builds(
            SamplingMetadata, schema=st.just(SAMPLING_SCHEMA),
            method=st.just(method), nominal=_WEIGHTS, allocation=_WEIGHTS)),
)


def _check_round_trip(report) -> None:
    cls = type(report)
    rebuilt = cls.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.digest() == report.digest()
    from_text = cls.from_dict(json.loads(report.to_json(indent=2)))
    assert from_text == report
    assert from_text.to_json() == report.to_json()
    assert from_text.digest() == report.digest()


@_SETTINGS
@given(stream_reports())
def test_stream_report_round_trips(report):
    _check_round_trip(report)
    payload = report.to_dict()
    payload["miss_rate"] = report.miss_rate + 1.0
    with pytest.raises(StreamError, match="StreamReport.miss_rate"):
        StreamReport.from_dict(payload)


@_SETTINGS
@given(platform_reports())
def test_platform_report_round_trips(report):
    _check_round_trip(report)
    payload = report.to_dict()
    payload["asil"]["verdict"] = "fail" if report.all_ok else "pass"
    with pytest.raises(PlatformError, match="PlatformReport.asil.verdict"):
        PlatformReport.from_dict(payload)


_TASK_COUNTERS = ("frames", "completed", "dropped", "deadline_misses",
                  "faults_injected", "faults_detected", "faults_sdc")


@_SETTINGS
@given(data=st.data(),
       counters=st.fixed_dictionaries(
           {name: st.integers(-1, 4) for name in _TASK_COUNTERS}))
def test_a_task_loads_only_when_its_counters_add_up(data, counters):
    task = data.draw(_platform_tasks(["gpu"]))
    devices = {"gpu": PlatformDevice(gpu="g", preset=None, capacity=1.0)}
    payload = PlatformReport(label="p", spec_hash="0", policy="p",
                             devices=devices, tasks={"t": task}).to_dict()
    payload["tasks"]["t"].update(counters)
    c = counters
    adds_up = (0 <= c["completed"] <= c["frames"]
               and c["dropped"] == c["frames"] - c["completed"]
               and 0 <= c["deadline_misses"] <= c["completed"]
               and min(c["faults_detected"], c["faults_sdc"]) >= 0
               and (c["faults_detected"] + c["faults_sdc"]
                    <= c["faults_injected"]))
    if adds_up:
        _check_round_trip(PlatformReport(
            label="p", spec_hash="0", policy="p", devices=devices,
            tasks={"t": dataclasses.replace(task, **counters)}))
        return
    # refused by the task's own bounds, before any derived key is read
    refusal = (r"^PlatformReport\.tasks\['t'\]: PlatformTask\.\w+ "
               r"must be in \[-?\d+, -?\d+\], got -?\d+$")
    with pytest.raises(PlatformError, match=refusal):
        PlatformReport.from_dict(payload)


@_SETTINGS
@given(platform_reports())
def test_device_totals_partition_the_platform_totals(report):
    device_totals = report.device_totals.values()
    for key in ("frames", "completed", "dropped", "deadline_misses",
                "faults_injected", "faults_detected", "faults_sdc"):
        assert (sum(getattr(entry, key) for entry in device_totals)
                == getattr(report.totals, key))


@_SETTINGS
@given(campaign_reports)
def test_campaign_report_round_trips(report):
    _check_round_trip(report)
    payload = report.to_dict()
    assert ("weighted_rates" in payload) == (report.sampling is not None)
    payload["total"] = report.total + 1
    with pytest.raises(FaultInjectionError, match="CampaignReport.total"):
        CampaignReport.from_dict(payload)


def _leaves(node, path=()):
    """``(path, value)`` of every non-null scalar of a JSON payload."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))
    elif node is not None:
        yield path, node


#: JSON type -> another value of that type than ``old``.
_OTHER = {
    bool: lambda old: st.just(not old),
    int: lambda old: st.integers(-10**6, 10**6).filter(lambda v: v != old),
    float: lambda old: st.floats(-1e6, 1e6, allow_nan=False).filter(
        lambda v: v != old),
    str: lambda old: _TEXT.filter(lambda v: v != old),
}

_REPORTS = {"campaign": campaign_reports, "platform": platform_reports(),
            "stream": stream_reports()}


@pytest.mark.parametrize("kind", sorted(_REPORTS))
@_SETTINGS
@given(data=st.data())
def test_a_one_leaf_edit_is_refused_or_loads_as_written(kind, data):
    report = data.draw(_REPORTS[kind])
    edited = report.to_dict()
    (*parents, leaf), old = data.draw(st.sampled_from(list(_leaves(edited))))
    node = edited
    for key in parents:
        node = node[key]
    node[leaf] = data.draw(_OTHER[type(old)](old))
    cls = type(report)
    try:
        loaded = cls.from_dict(copy.deepcopy(edited))
    except cls.load_error:
        return
    assert (json.dumps(loaded.to_dict(), sort_keys=True)
            == json.dumps(edited, sort_keys=True))


@pytest.mark.parametrize("kind", sorted(_REPORTS))
@_SETTINGS
@given(data=st.data())
def test_a_report_is_its_own_kind_and_no_different_from_itself(kind, data):
    report = data.draw(_REPORTS[kind])
    payload = report.to_dict()
    # the one report class that declares every key of the payload
    assert _kind_and_rows(payload, "A") == (kind, report.rate_rows())
    try:
        compared = compare_artifacts(payload, payload, resamples=20)
    except StatsError as exc:
        assert "share no comparable metrics" in str(exc)
        assert not any(trials for _, trials in report.rate_rows().values())
        return
    assert compared["kind"] == kind
    assert compared["comparisons"]
    assert not any(row["significant"] for row in compared["comparisons"])
