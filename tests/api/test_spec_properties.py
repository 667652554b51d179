"""Generated specs round-trip through their JSON form (hypothesis).

For small bounded strategies over the four top-level specs
(:class:`RunSpec`, :class:`StreamSpec`, :class:`CampaignSpec`,
:class:`PlatformSpec`): ``from_json(to_json(spec)) == spec`` and the
``config_hash`` provenance digest survives the trip.  Strategies only
build valid specs, and mix JSON ints into float fields, which must keep
their exact JSON form.  The same strategies drive one execution
property: a run's fault summary is the ``campaign run`` fold of its plan.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.campaign import CampaignSpec
from repro.api.platform import (
    PLACEMENT_POLICIES,
    DEVICE_PRESETS,
    DeviceSpec,
    PlacementSpec,
    PlatformSpec,
)
from repro.api.spec import (
    SYNTHETIC_KERNELS,
    CotsSpec,
    FaultPlanSpec,
    GPUSpec,
    KernelSpec,
    RunSpec,
    SMSpec,
    WorkloadSpec,
)
from repro.api.stats import RepeatSpec, SamplingSpec
from repro.api.stream import ArrivalSpec, StreamFaultSpec, StreamSpec

_SETTINGS = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TEXT = st.text(alphabet="ab-é", max_size=4)


def _number(low: float, high: float) -> st.SearchStrategy:
    """A float in ``[low, high]``, sometimes given as a JSON int."""
    return st.one_of(
        st.floats(min_value=low, max_value=high, allow_nan=False),
        st.integers(min_value=int(low) + 1, max_value=int(high)),
    )


def _optional(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | strategy


_KERNELS = st.builds(
    KernelSpec,
    name=st.sampled_from(["k0", "k1"]),
    grid_blocks=st.integers(1, 48),
    threads_per_block=st.sampled_from([32, 64, 128]),
    work_per_block=_number(1.0, 5000.0),
    bytes_per_block=_number(0.0, 1024.0),
)

_WORKLOADS = st.one_of(
    st.builds(WorkloadSpec, benchmark=st.sampled_from(["hotspot", "nn"]),
              repeat=st.integers(1, 3)),
    st.builds(WorkloadSpec, synthetic=st.sampled_from(sorted(SYNTHETIC_KERNELS))),
    st.builds(WorkloadSpec, kernels=st.lists(_KERNELS, min_size=1,
                                             max_size=3).map(tuple)),
)

_GPUS = st.builds(
    GPUSpec,
    preset=st.sampled_from([None, "gpgpusim", "gtx1050ti", "generic"]),
    num_sms=_optional(st.integers(1, 16)),
    clock_mhz=_optional(_number(100.0, 2000.0)),
    allow_kernel_mixing=_optional(st.booleans()),
    sm=_optional(st.builds(SMSpec, max_blocks=st.integers(1, 16),
                           issue_throughput=_number(0.5, 4.0))),
)

_FAULT_PLANS = st.builds(
    FaultPlanSpec,
    transient_ccf=st.integers(1, 50),
    permanent_sm=st.integers(0, 50),
    seu=st.integers(0, 50),
    seed=st.integers(0, 2**31),
    phase_quantum=_number(0.5, 4.0),
)


@st.composite
def run_specs(draw, redundant: bool = False) -> RunSpec:
    """Valid run specs; ``redundant`` ones can carry a stream/campaign."""
    workload = draw(_WORKLOADS)
    redundancy = draw(st.sampled_from(
        ["dmr", "tmr"] if redundant else ["none", "dmr", "tmr"]))
    copied = redundancy != "none"
    simulate = redundant or draw(st.booleans())
    return RunSpec(
        workload=workload,
        gpu=draw(_GPUS),
        policy=draw(st.sampled_from(["default", "srrs", "half"])),
        redundancy=redundancy,
        copies=draw(_optional(st.integers(2, 4))) if copied else None,
        simulate=simulate,
        baseline=copied and draw(st.booleans()),
        classify=draw(st.booleans()),
        cots=(draw(_optional(st.builds(CotsSpec, free_ms=_number(0.0, 1.0))))
              if workload.benchmark else None),
        faults=(draw(_optional(_FAULT_PLANS))
                if copied and simulate and not redundant else None),
        phase_tolerance=draw(_number(0.0, 8.0)),
        seed=draw(_optional(st.integers(0, 2**31))),
        tag=draw(_TEXT),
    )


@st.composite
def stream_specs(draw, tag: str = "") -> StreamSpec:
    model = draw(st.sampled_from(["periodic", "jittered", "poisson"]))
    period = draw(_number(1.0, 100.0))
    quantiles = draw(st.lists(st.sampled_from([0.5, 0.9, 0.99, 0.999]),
                              min_size=1, max_size=4, unique=True))
    return StreamSpec(
        run=draw(run_specs(redundant=True)),
        arrival=ArrivalSpec(
            model=model, period_ms=period,
            jitter_ms=(draw(st.floats(0.0, period / 2))
                       if model == "jittered" else 0.0)),
        frames=draw(st.integers(1, 5000)),
        queue_depth=draw(st.integers(0, 8)),
        deadline_ms=draw(_optional(_number(1.0, 200.0))),
        faults=draw(_optional(st.builds(
            StreamFaultSpec, probability=st.floats(0.0, 1.0),
            transient_ccf=st.integers(1, 3), seu=st.integers(0, 3)))),
        workload_mix=tuple(draw(st.lists(_WORKLOADS, max_size=2))),
        quantiles=tuple(sorted(quantiles)),
        window_ms=draw(_optional(_number(1.0, 1000.0))),
        seed=draw(st.integers(0, 2**31)),
        tag=tag or draw(_TEXT),
        asil=draw(st.sampled_from([None, "QM", "A", "B", "C", "D"])),
    )


@st.composite
def campaign_specs(draw) -> CampaignSpec:
    sampling = draw(_optional(st.builds(
        SamplingSpec, method=st.sampled_from(["stratified", "importance"]),
        transient_ccf=st.integers(1, 8), permanent_sm=st.integers(1, 8),
        seu=st.integers(1, 8))))
    repeat = None
    shards = shard_size = None
    if sampling is not None and draw(st.booleans()):
        batch = draw(st.integers(1, 100))
        half = draw(st.floats(0.001, 0.5))
        relative = draw(st.booleans())
        repeat = RepeatSpec(
            metric=draw(st.sampled_from(["masked", "detected", "sdc"])),
            relative_half_width=half if relative else None,
            half_width=None if relative else half,
            batch=batch,
            max_total=batch * draw(st.integers(1, 50)),
        )
    elif draw(st.booleans()):
        shards = draw(st.integers(1, 32))
    else:
        shard_size = draw(_optional(st.integers(1, 500)))
    return CampaignSpec(run=draw(run_specs(redundant=True)),
                        faults=draw(_FAULT_PLANS), shards=shards,
                        shard_size=shard_size, sampling=sampling,
                        repeat=repeat)


@st.composite
def platform_specs(draw) -> PlatformSpec:
    devices = tuple(
        DeviceSpec(name=f"gpu{i}",
                   preset=draw(st.sampled_from(sorted(DEVICE_PRESETS))),
                   gpu=draw(_optional(_GPUS)),
                   capacity=draw(_number(0.1, 2.0)))
        for i in range(draw(st.integers(1, 3)))
    )
    tasks = tuple(draw(stream_specs(tag=f"task{i}"))
                  for i in range(draw(st.integers(1, 3))))
    pins = tuple(
        (task.label, draw(st.sampled_from([d.name for d in devices])))
        for task in tasks if draw(st.booleans())
    )
    return PlatformSpec(
        devices=devices, tasks=tasks,
        placement=PlacementSpec(
            policy=draw(st.sampled_from(PLACEMENT_POLICIES)), pins=pins),
        tag=draw(_TEXT),
    )


def _assert_round_trip(spec) -> None:
    recovered = type(spec).from_json(spec.to_json())
    assert recovered == spec
    assert recovered.config_hash == spec.config_hash
    assert recovered.to_json(indent=2) == spec.to_json(indent=2)


@_SETTINGS
@given(run_specs())
def test_run_spec_round_trips(spec):
    _assert_round_trip(spec)


@_SETTINGS
@given(stream_specs())
def test_stream_spec_round_trips(spec):
    _assert_round_trip(spec)


@_SETTINGS
@given(campaign_specs())
def test_campaign_spec_round_trips(spec):
    _assert_round_trip(spec)


@_SETTINGS
@given(platform_specs())
def test_platform_spec_round_trips(spec):
    _assert_round_trip(spec)


@settings(_SETTINGS, max_examples=25)
@given(run_specs(redundant=True), _FAULT_PLANS)
def test_engine_faults_equal_the_campaign_fold(run, plan):
    from repro.api.engine import Engine
    from repro.campaigns.runner import run_campaign

    run = replace(run, baseline=False, classify=False, cots=None)
    faults = Engine().run(replace(run, faults=plan)).faults
    report = run_campaign(CampaignSpec(run=run, faults=plan), workers=1)
    assert faults.policy == report.policy
    assert (faults.total, faults.masked, faults.detected, faults.sdc) == (
        report.total, report.masked, report.detected, report.sdc)
    assert faults.by_kind_dict() == report.to_dict()["by_kind"]
    assert faults.masked + faults.detected + faults.sdc == faults.total
