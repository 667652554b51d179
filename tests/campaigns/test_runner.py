"""Tests for sharded campaign execution, checkpoint/resume and the fold.

The heart of this module is the determinism contract: a campaign that is
sharded, parallelised, killed mid-way and resumed must produce an
aggregate report bit-identical to the unsharded single-process run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
from repro.campaigns import (
    CampaignStore,
    campaign_status,
    fold_report,
    plan_shards,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.store import ShardRecord
from repro.errors import CampaignError


def _spec(policy: str = "srrs", *, shards=None, shard_size=None,
          total: int = 400, seed: int = 7) -> CampaignSpec:
    ccf = total // 2
    perm = total // 4
    seu = total - ccf - perm
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy=policy),
        faults=FaultPlanSpec(transient_ccf=ccf, permanent_sm=perm, seu=seu,
                             seed=seed),
        shards=shards,
        shard_size=shard_size,
    )


@pytest.fixture(scope="module")
def unsharded_report():
    """The single-shot, single-process reference aggregate."""
    return run_campaign(_spec(shards=1), workers=1)


class TestRunCampaign:
    def test_unsharded_run_covers_population(self, unsharded_report):
        assert unsharded_report.total == 400
        assert (unsharded_report.masked + unsharded_report.detected
                + unsharded_report.sdc) == 400

    def test_shard_count_does_not_change_the_report(self, unsharded_report):
        sharded = run_campaign(_spec(shards=7), workers=1)
        assert sharded.to_dict() == unsharded_report.to_dict()
        assert sharded.digest() == unsharded_report.digest()

    def test_shard_size_parameterisation(self, unsharded_report):
        sharded = run_campaign(_spec(shard_size=33), workers=1)
        assert sharded.to_dict() == unsharded_report.to_dict()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_the_report(
            self, unsharded_report, workers):
        sharded = run_campaign(_spec(shards=6), workers=workers)
        assert sharded.to_dict() == unsharded_report.to_dict()

    def test_default_policy_sdc_survives_sharding(self):
        reference = run_campaign(_spec("default", shards=1))
        sharded = run_campaign(_spec("default", shards=5), workers=2)
        assert reference.sdc > 0
        assert sharded.to_dict() == reference.to_dict()
        assert sharded.sdc_samples == reference.sdc_samples

    def test_invalid_workers_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(_spec(), workers=0)

    def test_workload_without_kernels_rejected(self):
        # cfd is COTS-only: there is no simulated trace to inject into
        spec = replace(_spec(shards=1), run=RunSpec(
            workload=WorkloadSpec(benchmark="cfd"), policy="srrs"))
        with pytest.raises(CampaignError,
                           match="'cfd' resolves to no kernels"):
            run_campaign(spec)


class TestInterruptAndResume:
    """Kill a campaign mid-way; resume must reach the bit-identical end."""

    def test_max_shards_stops_early_and_persists(self, tmp_path):
        store = CampaignStore(tmp_path)
        partial = run_campaign(_spec(shards=8), store=store, max_shards=3)
        status = campaign_status(store)
        assert not status.complete
        assert status.completed_shards == 3
        assert partial.total == status.completed_injections < 400

    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_resume_is_bit_identical(self, tmp_path, unsharded_report,
                                     resume_workers):
        store = CampaignStore(tmp_path)
        run_campaign(_spec(shards=8), store=store, workers=2, max_shards=3)
        resumed = resume_campaign(store, workers=resume_workers)
        assert campaign_status(store).complete
        assert resumed.to_dict() == unsharded_report.to_dict()
        assert resumed.digest() == unsharded_report.digest()

    def test_resume_skips_finished_shards(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(_spec(shards=8), store=store, max_shards=8)
        before = store.shards_path.read_text()
        resume_campaign(store)  # nothing pending
        assert store.shards_path.read_text() == before

    def test_resume_after_torn_write_recomputes_that_shard(
            self, tmp_path, unsharded_report):
        store = CampaignStore(tmp_path)
        run_campaign(_spec(shards=8), store=store, max_shards=4)
        with open(store.shards_path, "a") as handle:
            handle.write('{"shard": 4, "start":')  # killed mid-append
        resumed = resume_campaign(store)
        assert resumed.to_dict() == unsharded_report.to_dict()

    def test_rerun_with_same_spec_resumes(self, tmp_path, unsharded_report):
        spec = _spec(shards=8)
        run_campaign(spec, store=tmp_path, max_shards=5)
        completed = run_campaign(spec, store=tmp_path)
        assert completed.to_dict() == unsharded_report.to_dict()

    def test_rerun_with_different_spec_rejected(self, tmp_path):
        run_campaign(_spec(seed=7, shards=8), store=tmp_path, max_shards=1)
        with pytest.raises(CampaignError, match="fresh directory"):
            run_campaign(_spec(seed=8, shards=8), store=tmp_path)

    def test_tampered_shard_rejected_on_resume(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(_spec(shards=8), store=store, max_shards=2)
        lines = store.shards_path.read_text().splitlines()
        store.shards_path.write_text(
            lines[0].replace('"detected":', '"masked":', 1) + "\n"
        )
        with pytest.raises(CampaignError, match="digest mismatch"):
            resume_campaign(store)


class TestFoldAndStatus:
    def test_fold_order_independent(self):
        """The fold sorts by shard index: completion order is irrelevant."""
        from repro.campaigns.runner import _execute_shard

        spec = _spec(shards=5)
        report = run_campaign(spec)  # in-memory, complete
        tasks = [
            (spec.to_json(), s.index, s.start, s.stop, True)
            for s in plan_shards(400, shards=5)
        ]
        records = [_execute_shard(t) for t in tasks]
        forward = fold_report(records)
        backward = fold_report(reversed(records))
        assert forward.to_dict() == backward.to_dict() == report.to_dict()

    def test_fold_empty_rejected(self):
        with pytest.raises(CampaignError, match="no completed shards"):
            fold_report([])

    def test_fold_policy_disagreement_rejected(self):
        a = ShardRecord(shard=0, start=0, stop=1, policy="srrs",
                        counts={"SEUFault": {"detected": 1}})
        b = ShardRecord(shard=1, start=1, stop=2, policy="half",
                        counts={"SEUFault": {"detected": 1}})
        with pytest.raises(CampaignError, match="disagree"):
            fold_report([a, b])

    def test_status_of_fresh_store(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialise(_spec(shards=8))
        status = campaign_status(store)
        assert status.completed_shards == 0
        assert status.policy is None
        assert not status.complete
        assert status.to_dict()["complete"] is False

    def test_status_counts_match_report(self, tmp_path, unsharded_report):
        run_campaign(_spec(shards=8), store=tmp_path, workers=2)
        status = campaign_status(tmp_path)
        assert status.complete
        assert status.masked == unsharded_report.masked
        assert status.detected == unsharded_report.detected
        assert status.sdc == unsharded_report.sdc

    def test_mismatched_plan_rejected(self, tmp_path):
        # write records under one plan, then hand-edit the manifest's shard
        # count: the stored ranges no longer match the plan
        store = CampaignStore(tmp_path)
        run_campaign(_spec(shards=8), store=store, max_shards=2)
        manifest = store.manifest_path.read_text()
        store.manifest_path.write_text(
            manifest.replace('"shards": 8', '"shards": 3')
        )
        with pytest.raises(CampaignError, match="does not match"):
            campaign_status(store)
