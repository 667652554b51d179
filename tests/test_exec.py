"""The execution core (repro.exec): one pool path for every runner.

Covers :func:`repro.exec.map_tasks` directly (ordering, telemetry
hand-off, error reporting, typed pool failure, sidecar merge), the
structural rule that no other module builds a pool, and the
worker-count invariance of every runner rewired onto the core.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path

import pytest

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RunSpec,
    StreamSpec,
    WorkloadSpec,
)
from repro.api.engine import Engine
from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.api.stream import ArrivalSpec, StreamFaultSpec
from repro.campaigns import run_campaign
from repro.errors import PoolError
from repro.exec import map_tasks
from repro.obs import MemorySink, Telemetry, read_telemetry
from repro.obs.report import build_spans
from repro.platform.runner import run_platform
from repro.streams.runner import run_stream

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# module-level task functions: the pool pickles them by reference
def _square(task, telemetry):
    with telemetry.span("square", value=task):
        return task * task


def _telemetry_of(task, telemetry):
    return telemetry


def _fail_on_three(task, telemetry):
    if task == 3:
        raise ValueError(f"bad task {task}")
    return task


def _die_on_three(task, telemetry):
    if task == 3:
        os._exit(7)
    return task


def _fail_first_mark_rest(task, telemetry):
    directory, index = task
    if index == 0:
        raise ValueError("first task fails")
    (Path(directory) / f"ran-{index}").touch()
    time.sleep(0.05)
    return index


def _keys(tasks):
    return [f"task-{t}" for t in tasks]


def _errors(telemetry):
    return [e["data"] for e in telemetry.sink.events
            if e["type"] == "worker_error"]


class TestMapTasks:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ordered_results_follow_task_order(self, workers):
        tasks = list(range(9))
        assert list(map_tasks(_square, tasks, workers=workers,
                              keys=_keys(tasks))) == [t * t for t in tasks]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_unordered_results_cover_every_task(self, workers):
        tasks = list(range(7))
        out = map_tasks(_square, tasks, workers=workers, keys=_keys(tasks),
                        ordered=False)
        assert sorted(out) == [t * t for t in tasks]

    def test_in_process_fn_gets_the_callers_session(self):
        telemetry = Telemetry(MemorySink())
        (got,) = map_tasks(_telemetry_of, [0], workers=4, keys=["only"],
                           telemetry=telemetry)
        assert got is telemetry

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ordered", [True, False])
    def test_task_error_is_reported_then_reraised_unchanged(
            self, workers, ordered):
        telemetry = Telemetry(MemorySink())
        tasks = [1, 2, 3, 4]
        with pytest.raises(ValueError, match="bad task 3"):
            list(map_tasks(_fail_on_three, tasks, workers=workers,
                           keys=_keys(tasks), telemetry=telemetry,
                           ordered=ordered))
        (error,) = _errors(telemetry)
        assert error["key"] == "task-3"
        assert "bad task 3" in error["error"]

    @pytest.mark.parametrize("ordered", [True, False])
    def test_dead_worker_becomes_typed_pool_error(self, ordered):
        telemetry = Telemetry(MemorySink())
        tasks = [1, 2, 3, 4]
        with pytest.raises(PoolError, match="task-"):
            list(map_tasks(_die_on_three, tasks, workers=2,
                           keys=_keys(tasks), telemetry=telemetry,
                           ordered=ordered))
        (error,) = _errors(telemetry)
        assert error["key"].startswith("task-")
        assert "BrokenProcessPool" in error["error"]

    def test_failure_cancels_the_queued_tasks(self, tmp_path):
        tasks = [(str(tmp_path), i) for i in range(40)]
        with pytest.raises(ValueError, match="first task fails"):
            list(map_tasks(_fail_first_mark_rest, tasks, workers=2,
                           keys=[f"task-{i}" for i in range(40)],
                           ordered=False))
        # only tasks already handed to a worker still ran (the pool
        # queues one call beyond its workers), not all 39 others
        assert len(list(tmp_path.iterdir())) < 20

    def test_pooled_sidecars_merge_in_key_order(self, tmp_path):
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        tasks = [3, 1, 2]
        with telemetry.span("execute"):
            assert list(map_tasks(_square, tasks, workers=2,
                                  keys=_keys(tasks), telemetry=telemetry,
                                  ordered=False)) != []
        telemetry.close()
        events = read_telemetry(log)
        workers = [e["data"]["worker"] for e in events
                   if e["type"] == "span_start"
                   and e["data"].get("name") == "square"]
        assert workers == ["task-1", "task-2", "task-3"]
        (execute,) = build_spans(events)
        assert [c.name for c in execute.children] == ["square"] * 3
        assert not (tmp_path / "t.jsonl.workers").exists()


class TestOnePoolPath:
    def test_only_repro_exec_imports_concurrent_futures(self):
        importers = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "concurrent" or n.startswith("concurrent.")
                       for n in names):
                    importers.append(path.relative_to(SRC).as_posix())
        assert sorted(set(importers)) == ["exec.py"]


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20,
                             seed=7),
        shards=5,
    )


def _stream(**kwargs) -> StreamSpec:
    return StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        workload_mix=(WorkloadSpec(benchmark="hotspot"),
                      WorkloadSpec(synthetic="short")),
        faults=StreamFaultSpec(probability=0.01),
        **kwargs,
    )


def _platform() -> PlatformSpec:
    return PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="pcie4-discrete")),
        tasks=(StreamSpec.for_task("camera-perception", frames=150),
               StreamSpec.for_task("radar-cfar", frames=150),
               StreamSpec.for_task("trajectory-scoring", frames=150)),
        placement=PlacementSpec(policy="balanced"),
    )


class TestWorkerCountInvariance:
    """Every rewired runner reports bit-identically at 1, 2 and 4 workers."""

    @staticmethod
    def _same_at_every_worker_count(run):
        reference = run(1)
        for workers in (2, 4):
            assert run(workers) == reference

    def test_campaign(self):
        self._same_at_every_worker_count(
            lambda w: run_campaign(_campaign(), workers=w).to_dict())

    def test_stream_job_resolution(self):
        self._same_at_every_worker_count(
            lambda w: run_stream(_stream(frames=300), workers=w).to_dict())

    @pytest.mark.parametrize("arrival", [
        ArrivalSpec(model="poisson", period_ms=5.0),
        ArrivalSpec(model="jittered", period_ms=5.0, jitter_ms=2.0),
    ])
    def test_stream_predraw(self, arrival):
        # long enough for the pooled substream predraw
        spec = _stream(frames=16384, arrival=arrival)
        self._same_at_every_worker_count(
            lambda w: run_stream(spec, workers=w).to_dict())

    def test_platform(self):
        self._same_at_every_worker_count(
            lambda w: run_platform(_platform(), workers=w).to_dict())

    def test_engine_batch(self):
        specs = [RunSpec(workload=WorkloadSpec(benchmark=b), policy=p)
                 for b in ("hotspot", "bfs") for p in ("srrs", "half")]
        self._same_at_every_worker_count(
            lambda w: [a.to_dict() for a in Engine().run_many(specs,
                                                              workers=w)])
