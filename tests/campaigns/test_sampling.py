"""Tests for v2 sampled campaigns: determinism, digests, report schema.

Two contracts live here:

* the legacy uniform population stays digest-bit-identical (pinned
  hashes) — adding the sampling layer must not move a single byte of a
  v1 artifact;
* stratified / importance campaigns inherit the full determinism
  contract: worker-count invariance and kill/resume bit-identity.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RunSpec,
    SamplingSpec,
    WorkloadSpec,
)
from repro.campaigns import (
    CampaignStore,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.runner import baseline_campaign
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults.campaign import CampaignReport

#: Pinned digests of the legacy (v1) aggregate — hotspot, 120/40/40
#: seed 7, 4 shards.  These must never move: v1 artifacts are the
#: bit-identity baseline every release is checked against.
LEGACY_DIGESTS = {
    "srrs": "413add1de0732684",
    "default": "da3be0a4900ec906",
}


def _spec(policy: str = "default", *, sampling: SamplingSpec = None,
          shards: int = 4) -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy=policy),
        faults=FaultPlanSpec(transient_ccf=120, permanent_sm=40, seu=40,
                             seed=7),
        shards=shards,
        sampling=sampling,
    )


def _stratified(**weights) -> SamplingSpec:
    weights = weights or dict(transient_ccf=1, permanent_sm=2, seu=1)
    return SamplingSpec(method="stratified", **weights)


def _importance(**weights) -> SamplingSpec:
    weights = weights or dict(transient_ccf=1, permanent_sm=2, seu=1)
    return SamplingSpec(method="importance", **weights)


@pytest.fixture(scope="module")
def stratified_report():
    return run_campaign(_spec(sampling=_stratified()), workers=1)


@pytest.fixture(scope="module")
def importance_report():
    return run_campaign(_spec(sampling=_importance()), workers=1)


class TestLegacyDigestPins:
    @pytest.mark.parametrize("policy", sorted(LEGACY_DIGESTS))
    def test_v1_digest_is_pinned(self, policy):
        report = run_campaign(_spec(policy), workers=2)
        assert report.digest() == LEGACY_DIGESTS[policy]

    def test_v1_payload_has_no_v2_keys(self):
        report = run_campaign(_spec("srrs"), workers=1)
        data = report.to_dict()
        assert "sampling" not in data
        assert "weighted_rates" not in data
        assert report.sampling is None


class TestSampledDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_stratified_worker_invariance(self, stratified_report,
                                          workers):
        run = run_campaign(_spec(sampling=_stratified()), workers=workers)
        assert run.to_dict() == stratified_report.to_dict()
        assert run.digest() == stratified_report.digest()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_importance_worker_invariance(self, importance_report,
                                          workers):
        run = run_campaign(_spec(sampling=_importance()), workers=workers)
        assert run.to_dict() == importance_report.to_dict()

    def test_methods_differ(self, stratified_report, importance_report):
        assert (stratified_report.digest()
                != importance_report.digest())

    @pytest.mark.parametrize("sampling", [_stratified(), _importance()])
    def test_kill_and_resume_is_bit_identical(self, tmp_path, sampling,
                                              stratified_report,
                                              importance_report):
        reference = (stratified_report if sampling.method == "stratified"
                     else importance_report)
        store = CampaignStore(tmp_path)
        run_campaign(_spec(sampling=sampling), store=store, workers=2,
                     max_shards=2)
        resumed = resume_campaign(store, workers=1)
        assert resumed.to_dict() == reference.to_dict()
        assert resumed.digest() == reference.digest()

    def test_stratified_oversamples_the_allocated_kind(
            self, stratified_report):
        # allocation 1/2/1 over 200 injections: half are permanents
        trials = {kind: sum(v.values())
                  for kind, v in stratified_report.by_kind.items()}
        assert trials["PermanentSMFault"] == 100
        assert trials["TransientCCF"] == 50
        assert trials["SEUFault"] == 50


class TestReportSchema:
    def test_v2_payload_carries_sampling_and_weighted_rates(
            self, stratified_report):
        data = stratified_report.to_dict()
        assert data["sampling"]["method"] == "stratified"
        assert data["sampling"]["nominal"] == {
            "ccf": 120, "perm": 40, "seu": 40,
        }
        assert data["sampling"]["allocation"] == {
            "ccf": 1, "perm": 2, "seu": 1,
        }
        weighted = data["weighted_rates"]
        assert sorted(weighted) == ["detected", "masked", "sdc"]
        total = sum(weighted.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_from_dict_round_trips_v1(self):
        report = run_campaign(_spec("srrs"), workers=1)
        loaded = CampaignReport.from_dict(report.to_dict())
        assert loaded.to_dict() == report.to_dict()
        assert loaded.digest() == report.digest()

    def test_from_dict_round_trips_v2(self, stratified_report):
        loaded = CampaignReport.from_dict(stratified_report.to_dict())
        assert loaded.to_dict() == stratified_report.to_dict()
        assert loaded.digest() == stratified_report.digest()
        assert loaded.sampling == stratified_report.sampling

    def test_from_dict_rejects_inconsistent_totals(self, stratified_report):
        data = stratified_report.to_dict()
        data["sdc"] = data["sdc"] + 1
        with pytest.raises(FaultInjectionError,
                           match="^CampaignReport.sdc must be"):
            CampaignReport.from_dict(data)

    def test_weighted_estimate_tracks_uniform_truth(self,
                                                    stratified_report):
        # the reweighted estimate and the uniform census measure the
        # same population rate; with 200 samples each they must agree
        # to within sampling noise
        uniform = run_campaign(_spec("default"), workers=1)
        weighted = stratified_report.rate_estimator("sdc").rate()
        census = uniform.sdc / uniform.total
        assert weighted == pytest.approx(census, abs=0.05)


class TestSamplingConfigValidation:
    """A campaign's sampling design is checked where its spec is built."""

    def _load(self, sampling):
        data = _spec().to_dict()
        data["sampling"] = sampling
        return CampaignSpec.from_dict(data)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sampling"):
            self._load({"method": "adaptive"})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            self._load({"method": "stratified", "permanent_sm": -1})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            self._load({"method": "stratified", "transient_ccf": 0,
                        "permanent_sm": 0, "seu": 0})

    def test_support_condition_enforced(self):
        starved = SamplingSpec(method="stratified", transient_ccf=1,
                               permanent_sm=0, seu=1)
        with pytest.raises(ConfigurationError, match="no weight"):
            _spec(sampling=starved)

    def test_stratified_block_follows_allocation(self):
        spec = _spec(sampling=_stratified())
        campaign = baseline_campaign(spec.run)
        faults = campaign.sample_range(spec.faults, 0, 8,
                                       sampling=spec.sampling)
        kinds = [type(fault).__name__ for fault in faults]
        assert kinds == ["TransientCCF", "PermanentSMFault",
                         "PermanentSMFault", "SEUFault"] * 2
