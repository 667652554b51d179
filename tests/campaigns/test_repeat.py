"""Tests for repeat-until-confidence campaigns.

The repeater extends a sampled campaign batch by batch until the CI on
the targeted rate is tight enough.  Its determinism contract mirrors
the plain sharded runner's: the stop point is a pure function of the
shard-prefix data, so worker counts and kill/resume histories can never
change the returned aggregate.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RepeatSpec,
    RunSpec,
    SamplingSpec,
    WorkloadSpec,
)
from repro.campaigns import (
    CampaignStore,
    baseline_campaign,
    campaign_plan,
    repeat_campaign,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.runner import classify_shard
from repro.cli import main
from repro.errors import (
    CampaignError,
    ConfigurationError,
    RepeatBudgetError,
    StatsError,
)
from repro.obs import MemorySink, Telemetry, read_telemetry
from repro.stats.repeater import STOP_BUDGET, STOP_TARGET


def _spec(*, relative_half_width=0.5, half_width=None, batch=100,
          max_total=2000, metric="sdc") -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="default"),
        faults=FaultPlanSpec(transient_ccf=120, permanent_sm=40, seu=40,
                             seed=7),
        sampling=SamplingSpec(method="stratified", transient_ccf=1,
                              permanent_sm=2, seu=1),
        repeat=RepeatSpec(metric=metric,
                          relative_half_width=relative_half_width,
                          half_width=half_width,
                          batch=batch, max_total=max_total),
    )


@pytest.fixture(scope="module")
def converged():
    return repeat_campaign(_spec(), workers=1)


class TestConvergence:
    def test_stops_when_target_met(self, converged):
        assert converged.converged
        assert converged.stop_reason == STOP_TARGET
        assert converged.check() is converged
        est = converged.estimate
        assert est.metric == "sdc"
        assert est.relative_half_width <= 0.5

    def test_aggregate_matches_batches(self, converged):
        assert converged.total == converged.batches * 100
        assert converged.report.total == converged.total
        assert converged.total < 2000  # did not need the whole budget

    def test_history_is_the_trajectory(self, converged):
        assert converged.history
        assert converged.history[-1].to_dict() == converged.estimate.to_dict()
        # only the stop point meets the target; earlier points do not
        for earlier in converged.history[:-1]:
            assert earlier.relative_half_width > 0.5

    def test_overshoot_excluded_from_aggregate(self, converged):
        # the first batch-prefix meeting the target defines the result,
        # even if more batches were scheduled concurrently
        rerun = repeat_campaign(_spec(), workers=4)
        assert rerun.total == converged.total
        assert rerun.report.to_dict() == converged.report.to_dict()


class TestProgress:
    def test_progress_ends_at_the_stopping_prefix(self):
        telemetry = Telemetry(MemorySink())
        result = repeat_campaign(_spec(), workers=1, telemetry=telemetry)
        telemetry.close()
        beats = [e["data"] for e in telemetry.sink.events
                 if e["type"] == "heartbeat"]
        assert result.batches < len(campaign_plan(_spec()))
        assert beats[-1]["done"] == beats[-1]["total"] == result.batches
        assert beats[-1]["metrics"]["gauges"]["pending_shards"] == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_progress_ends_at_the_shards_it_consumed(self, workers):
        # a pool may finish shards past the stopping prefix before the
        # queue is cancelled: the last beat counts every shard that ran
        telemetry = Telemetry(MemorySink())
        result = repeat_campaign(_spec(), workers=workers,
                                 telemetry=telemetry)
        telemetry.close()
        events = telemetry.sink.events
        beats = [e["data"] for e in events if e["type"] == "heartbeat"]
        ran = sum(e["type"] == "shard_end" for e in events)
        assert result.batches <= ran
        assert beats[-1]["done"] == beats[-1]["total"] == ran
        assert beats[-1]["metrics"]["gauges"]["pending_shards"] == 0

    def test_run_start_pending_counts_the_dispatched_shards(self):
        telemetry = Telemetry(MemorySink())
        repeat_campaign(_spec(), workers=1, telemetry=telemetry)
        telemetry.close()
        events = telemetry.sink.events
        start = next(e["data"] for e in events if e["type"] == "run_start")
        beats = [e["data"] for e in events if e["type"] == "heartbeat"]
        assert start["pending"] == start["shards"] == len(
            campaign_plan(_spec()))
        assert beats[-1]["total"] < start["pending"]  # the rest cancelled

    def test_fixed_size_progress_ends_at_every_shard(self):
        telemetry = Telemetry(MemorySink())
        run_campaign(_fixed_spec(), telemetry=telemetry)
        telemetry.close()
        beats = [e["data"] for e in telemetry.sink.events
                 if e["type"] == "heartbeat"]
        assert beats[-1]["done"] == beats[-1]["total"] == 4
        assert beats[-1]["metrics"]["gauges"]["pending_shards"] == 0


def _fixed_spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="default"),
        faults=FaultPlanSpec(transient_ccf=24, permanent_sm=8, seu=8,
                             seed=7),
        shards=4)


def _counts(events):
    """``(shard_start, shard span starts, shard_end)`` event counts."""
    return (sum(e["type"] == "shard_start" for e in events),
            sum(e["type"] == "span_start" and e["data"].get("name") == "shard"
                for e in events),
            sum(e["type"] == "shard_end" for e in events))


class TestShardStart:
    """``shard_start`` is logged by the shard itself, so only shards that
    ran log one (a pooled shard through its worker sidecar)."""

    def test_a_pooled_repeat_run_logs_a_start_per_shard_that_ran(
            self, tmp_path):
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        repeat_campaign(_spec(), workers=2, telemetry=telemetry)
        telemetry.close()
        starts, spans, ends = _counts(read_telemetry(log))
        assert starts == spans
        # the queued shards past the stopping prefix never ran
        assert ends <= starts < len(campaign_plan(_spec()))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fixed_size_run_logs_a_start_per_shard_end(self, tmp_path,
                                                         workers):
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        run_campaign(_fixed_spec(), workers=workers, telemetry=telemetry)
        telemetry.close()
        assert _counts(read_telemetry(log)) == (4, 4, 4)


class TestBudget:
    def test_budget_exhaustion_is_typed(self):
        result = repeat_campaign(_spec(relative_half_width=0.01,
                                       batch=200, max_total=400))
        assert not result.converged
        assert result.stop_reason == STOP_BUDGET
        assert result.total == 400
        assert result.error
        with pytest.raises(RepeatBudgetError):
            result.check()

    def test_budget_result_still_carries_estimate(self):
        result = repeat_campaign(_spec(relative_half_width=0.01,
                                       batch=200, max_total=400))
        assert result.estimate.metric == "sdc"
        assert result.report.total == 400


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_invariance(self, converged, workers):
        rerun = repeat_campaign(_spec(), workers=workers)
        assert rerun.report.to_dict() == converged.report.to_dict()
        assert rerun.total == converged.total
        assert ([e.to_dict() for e in rerun.history]
                == [e.to_dict() for e in converged.history])

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path,
                                                   converged):
        # run to completion in one store, then replay a truncated copy
        full = tmp_path / "full"
        repeat_campaign(_spec(), store=CampaignStore(full), workers=1)
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(full / "campaign.json", partial / "campaign.json")
        lines = (full / "shards.jsonl").read_text().splitlines(True)
        (partial / "shards.jsonl").write_text("".join(lines[:1]))
        resumed = resume_campaign(CampaignStore(partial), workers=1)
        assert resumed.report.to_dict() == converged.report.to_dict()
        assert resumed.total == converged.total
        assert ([e.to_dict() for e in resumed.history]
                == [e.to_dict() for e in converged.history])

    def test_completed_store_replays_without_rerunning(self, tmp_path,
                                                       converged):
        store = CampaignStore(tmp_path)
        first = repeat_campaign(_spec(), store=store, workers=2)
        before = store.shards_path.read_text()
        again = resume_campaign(store)
        assert store.shards_path.read_text() == before
        assert again.report.to_dict() == first.report.to_dict()


class TestStoreReaders:
    """``campaign report``/``status`` read the repeater's result, whatever
    shards past its stop point a pool left in the store."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("readers")
        stores = {}
        for workers in (1, 2, 4):
            stores[workers] = root / f"w{workers}"
            repeat_campaign(_spec(), store=CampaignStore(stores[workers]),
                            workers=workers)
        # a pool may persist shards past the stop point: add two
        spec = _spec()
        campaign = baseline_campaign(spec.run)
        store = CampaignStore(stores[1].with_name("overshoot"))
        shutil.copytree(stores[1], store.root)
        for shard in campaign_plan(spec)[1:3]:
            store.append(classify_shard(campaign, spec.effective_faults,
                                        shard, sampling=spec.sampling))
        stores["overshoot"] = store.root
        return stores

    @staticmethod
    def _json(capsys, *argv):
        capsys.readouterr()
        assert main(["campaign", *argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("store", [1, 2, 4, "overshoot"])
    def test_report_prints_the_repeaters_aggregate(self, capsys, converged,
                                                   stores, store):
        payload = self._json(capsys, "report", "--dir", str(stores[store]))
        assert payload == converged.report.to_dict()
        loaded = type(converged.report).from_dict(payload)
        assert loaded.digest() == converged.report.digest()

    @pytest.mark.parametrize("store", [1, 2, 4, "overshoot"])
    def test_status_is_complete_with_the_repeaters_counts(
            self, capsys, converged, stores, store):
        status = self._json(capsys, "status", "--dir", str(stores[store]))
        assert status["complete"] is True
        assert status["completed_shards"] == converged.batches
        assert status["completed_injections"] == converged.total
        report = converged.report
        assert ((status["masked"], status["detected"], status["sdc"])
                == (report.masked, report.detected, report.sdc))

    def test_unsettled_store_reports_only_with_partial(self, capsys,
                                                       tmp_path):
        # the budget-exhausting spec, cut after its first shard
        spec = _spec(relative_half_width=0.01, batch=200, max_total=400)
        full = tmp_path / "full"
        repeat_campaign(spec, store=CampaignStore(full))
        cut = tmp_path / "cut"
        cut.mkdir()
        shutil.copy(full / "campaign.json", cut / "campaign.json")
        lines = (full / "shards.jsonl").read_text().splitlines(True)
        (cut / "shards.jsonl").write_text(lines[0])

        assert self._json(capsys, "status", "--dir", str(cut))[
            "complete"] is False
        assert main(["campaign", "report", "--dir", str(cut)]) == 1
        assert "incomplete" in capsys.readouterr().err
        assert self._json(capsys, "report", "--dir", str(cut),
                          "--partial")["total"] == 200
        # the exhausted budget settles the store without convergence
        status = self._json(capsys, "status", "--dir", str(full))
        assert status["complete"] is True
        assert status["completed_injections"] == 400


class TestDispatchAndValidation:
    def test_run_campaign_rejects_repeat_specs(self):
        with pytest.raises(CampaignError, match="repeat_campaign"):
            run_campaign(_spec())

    def test_resume_rejects_max_shards_for_repeat(self, tmp_path):
        store = CampaignStore(tmp_path)
        repeat_campaign(_spec(), store=store)
        with pytest.raises(CampaignError):
            resume_campaign(store, max_shards=1)

    def test_repeat_campaign_rejects_plain_specs(self):
        plain = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="default"),
            faults=FaultPlanSpec(transient_ccf=40, permanent_sm=20,
                                 seu=20, seed=7),
        )
        with pytest.raises((CampaignError, StatsError)):
            repeat_campaign(plain)

    def test_repeat_requires_sampling(self):
        with pytest.raises(ConfigurationError, match="sampling"):
            CampaignSpec(
                run=RunSpec(workload=WorkloadSpec(benchmark="hotspot")),
                faults=FaultPlanSpec(transient_ccf=40, permanent_sm=20,
                                     seu=20, seed=7),
                repeat=RepeatSpec(metric="sdc", relative_half_width=0.5),
            )

    def test_repeat_forbids_explicit_sharding(self):
        with pytest.raises(ConfigurationError):
            _spec_with_shards = CampaignSpec(
                run=RunSpec(workload=WorkloadSpec(benchmark="hotspot")),
                faults=FaultPlanSpec(transient_ccf=40, permanent_sm=20,
                                     seu=20, seed=7),
                sampling=SamplingSpec(method="stratified"),
                repeat=RepeatSpec(metric="sdc", relative_half_width=0.5),
                shards=4,
            )
            del _spec_with_shards

    def test_repeat_metric_must_be_a_campaign_rate(self):
        with pytest.raises(ConfigurationError, match="metric"):
            _spec(metric="deadline_miss")

    def test_total_injections_is_the_budget_cap(self):
        assert _spec(max_total=1200).total_injections == 1200
