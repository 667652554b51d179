"""Forked pool workers inherit the execution stack and the baseline.

``campaign run/resume`` simulate the clean baseline in the orchestrating
process before the pool starts, and every pooled command imports what
its tasks run before forking.  So a forked worker neither re-simulates
the baseline nor imports a module the parent had not already loaded; a
module loaded lazily inside each worker costs each worker its memory
(``peak_rss_mb``).  Workers started by spawning rebuild the baseline
through the runner's per-process cache and give the same report.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaigns.runner as runner
from repro.api import (CampaignSpec, CotsSpec, FaultPlanSpec, RunSpec,
                       WorkloadSpec)
from repro.obs import Telemetry, read_telemetry

SRC = Path(__file__).resolve().parents[1] / "src"

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the parent only when started by fork",
)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="bfs"),
                    policy="default"),
        faults=FaultPlanSpec(transient_ccf=40, permanent_sm=20, seu=20,
                             seed=5),
        shards=4,
    )


#: Runs ``python -m repro ARGV`` with every pool task wrapped: after the
#: task, the worker appends the modules it holds beyond those it had at
#: fork to LOG, one JSON list per task.
NEW_IN_WORKER = """
import json, os, runpy, sys
import repro.exec

LOG, ARGV = sys.argv[1], sys.argv[2:]
AT_FORK = set()
os.register_at_fork(after_in_child=lambda: AT_FORK.update(sys.modules))
_run_pooled = repro.exec._run_pooled


def traced(job):
    try:
        return _run_pooled(job)
    finally:
        with open(LOG, "a") as log:
            log.write(json.dumps(sorted(set(sys.modules) - AT_FORK)) + "\\n")


repro.exec._run_pooled = traced
sys.argv = ["repro"] + ARGV
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def _new_in_worker(tmp_path: Path, argv) -> list:
    """Per pool task, the modules first imported inside its worker."""
    log = tmp_path / "new-modules.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", NEW_IN_WORKER, str(log), *argv],
                   env=env, check=True, capture_output=True)
    return [json.loads(line) for line in log.read_text().splitlines()]


@fork_only
class TestForkedWorkers:
    def test_every_worker_baseline_is_inherited(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(runner, "_BASELINE_CACHE", {})
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        runner.run_campaign(_spec(), workers=2, telemetry=telemetry)
        telemetry.close()
        baselines = [e["data"] for e in read_telemetry(log)
                     if e["type"] == "span_start"
                     and e["data"]["name"] == "baseline"]
        in_workers = [b for b in baselines if "worker" in b]
        assert len(in_workers) == 4
        assert all(b["cached"] is True for b in in_workers)
        # built once, by the orchestrator, before the pool started
        assert [b["cached"] for b in baselines if "worker" not in b] == [
            False]

    def test_campaign_workers_import_nothing(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(_spec().to_json())
        tasks = _new_in_worker(tmp_path, [
            "campaign", "run", "--spec", str(spec),
            "--dir", str(tmp_path / "store"), "--workers", "2"])
        assert len(tasks) == 4
        assert tasks == [[]] * 4

    def test_batch_workers_import_nothing(self, tmp_path):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            RunSpec(workload=WorkloadSpec(benchmark=benchmark),
                    policy=policy, baseline=True).to_dict()
            for benchmark in ("bfs", "nn") for policy in ("default", "srrs")
        ]))
        tasks = _new_in_worker(tmp_path, [
            "batch", str(specs), "--workers", "2", "--json"])
        assert tasks and all(new == [] for new in tasks)

    def test_batch_workers_inherit_the_optional_features(self, tmp_path):
        # the Engine imports the fault campaign, the classifier and the
        # COTS model at first use; a batch loads them before forking
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            RunSpec(workload=WorkloadSpec(benchmark=benchmark),
                    policy=policy, classify=True, cots=CotsSpec(),
                    faults=FaultPlanSpec(transient_ccf=2, permanent_sm=1,
                                         seu=1)).to_dict()
            for benchmark in ("bfs", "nn") for policy in ("default", "srrs")
        ]))
        tasks = _new_in_worker(tmp_path, [
            "batch", str(specs), "--workers", "2", "--json"])
        assert tasks and all(new == [] for new in tasks)


SPAWNED = """
import json, multiprocessing, sys
multiprocessing.set_start_method("spawn")
from repro.api.campaign import CampaignSpec
from repro.campaigns.runner import run_campaign

spec = CampaignSpec.from_json(sys.argv[1])
print(json.dumps(run_campaign(spec, workers=2).to_dict(), sort_keys=True))
"""


def test_spawned_workers_rebuild_the_same_report():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SPAWNED, _spec().to_json()],
                         env=env, check=True, capture_output=True, text=True)
    spawned = json.loads(out.stdout.splitlines()[-1])
    assert spawned == runner.run_campaign(_spec(), workers=1).to_dict()
