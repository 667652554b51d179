"""A pool worker killed mid-shard: typed error, clean CLI exit, resumable.

The shard function is monkeypatched so that one shard's worker process
calls ``os._exit`` — the signature of an OOM kill.  The run must fail
with :class:`~repro.errors.PoolError` (a ``ReproError``, so the CLI
prints one ``error:`` line and exits 1), and resuming the store must
reach the digest of an uninterrupted run.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.campaigns.runner as runner
from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
from repro.campaigns import CampaignStore, resume_campaign, run_campaign
from repro.cli import main
from repro.errors import PoolError, ReproError
from repro.obs import MemorySink, Telemetry

_execute_shard = runner._execute_shard
_CRASH_SHARD = 4


def _die_mid_shard(task, telemetry=None):
    """Shard function whose worker dies on one shard (pickled by ref)."""
    if task[1] == _CRASH_SHARD:
        os._exit(9)
    return _execute_shard(task, telemetry)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="bfs"),
                    policy="default"),
        faults=FaultPlanSpec(transient_ccf=200, permanent_sm=100, seu=100,
                             seed=11),
        shards=6,
    )


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted, in-process run."""
    return run_campaign(_spec(), workers=1)


@pytest.fixture
def crashing(monkeypatch):
    monkeypatch.setattr(runner, "_execute_shard", _die_mid_shard)


class TestLibrary:
    def test_killed_worker_raises_pool_error(self, tmp_path, crashing):
        telemetry = Telemetry(MemorySink())
        with pytest.raises(PoolError, match="shard-") as info:
            run_campaign(_spec(), store=tmp_path, workers=2,
                         telemetry=telemetry)
        assert isinstance(info.value, ReproError)
        errors = [e["data"] for e in telemetry.sink.events
                  if e["type"] == "worker_error"]
        assert len(errors) == 1 and errors[0]["key"].startswith("shard-")

    def test_store_stays_readable_and_resumes_to_the_reference(
            self, tmp_path, monkeypatch, reference):
        monkeypatch.setattr(runner, "_execute_shard", _die_mid_shard)
        with pytest.raises(PoolError):
            run_campaign(_spec(), store=tmp_path, workers=2)
        persisted = CampaignStore(tmp_path).load_records()
        assert _CRASH_SHARD not in persisted
        monkeypatch.undo()
        resumed = resume_campaign(tmp_path, workers=2)
        assert resumed.to_dict() == reference.to_dict()
        assert resumed.digest() == reference.digest()


class TestCli:
    def test_run_exits_1_with_one_error_line_then_resumes(
            self, tmp_path, capsys, monkeypatch, reference):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_spec().to_json())
        store = tmp_path / "store"
        monkeypatch.setattr(runner, "_execute_shard", _die_mid_shard)
        code = main(["campaign", "run", "--spec", str(spec_path),
                     "--dir", str(store), "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "shard-" in lines[0]

        monkeypatch.undo()
        assert main(["campaign", "resume", "--dir", str(store),
                     "--workers", "2", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == reference.to_dict()
        assert resume_campaign(store).digest() == reference.digest()
