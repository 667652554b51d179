"""One indexed-substream recipe, draw-for-draw identical to the original.

Campaign faults (``fault_substream``, ``FaultCampaign.fault_at``) and
stream frames (``frame_substream``, ``substream_factory``) all seed from
:mod:`repro.substreams`.  The oracle below is the recipe each of them
used on its own before: a fresh ``random.Random`` seeded with the first
eight bytes of ``SHA-256("{key}{index}")``.  Indices are visited in a
random order, so the shared re-seeded generators are checked across
arbitrary jumps.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api.spec import FaultPlanSpec, RunSpec, WorkloadSpec
from repro.api.stats import SamplingSpec
from repro.campaigns.runner import baseline_campaign
from repro.faults.campaign import fault_substream
from repro.streams.arrivals import frame_substream, substream_factory


def oracle(text: str) -> random.Random:
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def pairs(n: int = 200):
    rng = random.Random(20191)
    return [(rng.randrange(2 ** 31), rng.randrange(60)) for _ in range(n)]


@pytest.fixture(scope="module")
def campaign():
    return baseline_campaign(
        RunSpec(workload=WorkloadSpec(benchmark="hotspot"), policy="srrs")
    )


DESIGNS = {
    "legacy": None,
    "stratified": SamplingSpec(method="stratified", transient_ccf=1,
                               permanent_sm=8, seu=1),
    "importance": SamplingSpec(method="importance", transient_ccf=2,
                               permanent_sm=3, seu=5),
}


def kind_block(weights):
    """The kinds in canonical order, each repeated by its weight."""
    return (["ccf"] * weights.transient_ccf
            + ["perm"] * weights.permanent_sm
            + ["seu"] * weights.seu)


def expected_fault(campaign, plan, index, sampling):
    """The fault the pre-refactor sampler drew: a fresh oracle stream."""
    rng = oracle(f"{plan.seed}:{index}")
    if sampling is None:
        kind = kind_block(plan)[index]
    elif sampling.method == "stratified":
        block = kind_block(sampling)
        kind = block[index % len(block)]
    else:
        block = kind_block(sampling)
        kind = block[rng.randrange(len(block))]
    return campaign._build_fault(kind, rng, index, plan.phase_quantum)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fault_at_matches_the_fresh_stream_recipe(campaign, design):
    sampling = DESIGNS[design]
    for seed, index in pairs():
        plan = FaultPlanSpec(transient_ccf=20, permanent_sm=20, seu=20,
                             seed=seed)
        assert (campaign.fault_at(plan, index, sampling=sampling)
                == expected_fault(campaign, plan, index, sampling))


def test_fault_substream_matches_the_recipe():
    for seed, index in pairs():
        assert (fault_substream(seed, index).getstate()
                == oracle(f"{seed}:{index}").getstate())


@pytest.mark.parametrize("purpose", ["jitter", "gap", "fault"])
def test_frame_substreams_match_the_recipe(purpose):
    for seed, index in pairs():
        assert (frame_substream(seed, purpose, index).getstate()
                == oracle(f"{seed}:{purpose}:{index}").getstate())


@pytest.mark.parametrize("purpose", ["jitter", "gap", "fault"])
def test_amortised_factory_matches_the_recipe(purpose):
    # one factory re-seeds one generator for every index it is asked for
    seed = 2019
    frames = substream_factory(seed, purpose)
    for _, index in pairs():
        expected = oracle(f"{seed}:{purpose}:{index}")
        draws = frames(index)
        assert [draws.random() for _ in range(3)] == \
            [expected.random() for _ in range(3)]
