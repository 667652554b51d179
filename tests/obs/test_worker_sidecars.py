"""Per-worker sidecar capture and the deterministic merge."""

from __future__ import annotations

from pathlib import Path

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.campaigns import run_campaign
from repro.obs import (
    JsonlSink,
    MemorySink,
    NULL_TELEMETRY,
    Telemetry,
    classify_events,
    close_worker_session,
    merge_sidecars,
    read_telemetry,
    sidecar_dir,
    sidecar_path,
    worker_session,
)
from repro.obs.report import build_spans


def _file_session(tmp_path) -> Telemetry:
    return Telemetry(JsonlSink(tmp_path / "t.jsonl"))


def _write_sidecar(wdir, key: str, span_name: str) -> None:
    wt = worker_session(sidecar_path(wdir, key))
    with wt.span(span_name, key=key):
        wt.emit("checkpoint", shard=key)
    close_worker_session(wt)


class TestSidecarPlumbing:
    def test_sidecar_dir_sits_next_to_the_log(self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        telemetry.close()
        assert wdir == tmp_path / "t.jsonl.workers"
        assert wdir.is_dir()

    def test_memory_and_null_sessions_have_no_sidecars(self, tmp_path):
        assert sidecar_dir(Telemetry(MemorySink())) is None
        assert sidecar_dir(Telemetry()) is None

    def test_sidecar_path_sanitises_hostile_keys(self, tmp_path):
        path = sidecar_path(tmp_path, "device-gpu/0 (fast)")
        assert Path(path).name == "worker-device-gpu_0_fast_.jsonl"

    def test_worker_session_without_path_is_the_shared_null(self):
        assert worker_session(None) is NULL_TELEMETRY
        assert worker_session("") is NULL_TELEMETRY

    def test_close_never_touches_the_shared_null(self):
        close_worker_session(NULL_TELEMETRY)
        assert not NULL_TELEMETRY.enabled  # still usable, still null

    def test_worker_session_replaces_a_previous_attempt(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        first = worker_session(path)
        first.emit("checkpoint", attempt=1)
        close_worker_session(first)
        second = worker_session(path)
        close_worker_session(second)
        events = read_telemetry(path)
        # only the second attempt's session remains
        assert sum(e["type"] == "telemetry_start" for e in events) == 1
        assert not any(e["type"] == "checkpoint" for e in events)


class TestMergeSidecars:
    def test_merge_is_sorted_by_key_then_seq(self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        _write_sidecar(wdir, "w-b", "beta")   # written first,
        _write_sidecar(wdir, "w-a", "alpha")  # merged second
        with telemetry.span("execute"):
            merged = merge_sidecars(telemetry, wdir, ["w-b", "w-a"])
        telemetry.close()
        assert merged == 6  # 3 payload events per worker
        events = read_telemetry(tmp_path / "t.jsonl")
        assert classify_events(events) == ([], [])
        workers = [e["data"]["worker"] for e in events
                   if "worker" in e.get("data", {})]
        assert workers == ["w-a"] * 3 + ["w-b"] * 3

    def test_merged_spans_are_reparented_under_the_open_span(
            self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        _write_sidecar(wdir, "w-a", "alpha")
        with telemetry.span("execute"):
            merge_sidecars(telemetry, wdir, ["w-a"])
        telemetry.close()
        events = read_telemetry(tmp_path / "t.jsonl")
        roots = build_spans(events)
        assert [n.name for n in roots] == ["execute"]
        assert [n.name for n in roots[0].children] == ["alpha"]
        start = next(e for e in events
                     if e["type"] == "span_start"
                     and e["data"].get("name") == "alpha")
        assert start["data"]["span"] == "w-a:0"
        assert start["data"]["worker_seq"] == 1
        assert isinstance(start["data"]["worker_t_ms"], float)

    def test_merged_files_and_directory_are_cleaned_up(self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        _write_sidecar(wdir, "w-a", "alpha")
        merge_sidecars(telemetry, wdir, ["w-a"])
        telemetry.close()
        assert not wdir.exists()

    def test_leftover_sidecar_keeps_the_directory_for_post_mortem(
            self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        _write_sidecar(wdir, "w-a", "alpha")
        _write_sidecar(wdir, "w-crashed", "beta")
        # the orchestrator only merges the keys it dispatched and got
        # results for; a crashed worker's file must survive the merge
        merge_sidecars(telemetry, wdir, ["w-a"])
        telemetry.close()
        assert wdir.is_dir()
        assert [p.name for p in sorted(wdir.iterdir())] == [
            "worker-w-crashed.jsonl"]

    def test_absent_sidecar_is_skipped_silently(self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        assert merge_sidecars(telemetry, wdir, ["w-gone"]) == 0
        telemetry.close()
        events = read_telemetry(tmp_path / "t.jsonl")
        assert classify_events(events) == ([], [])

    def test_torn_sidecar_tail_keeps_events_before_the_tear(
            self, tmp_path):
        telemetry = _file_session(tmp_path)
        wdir = sidecar_dir(telemetry)
        wt = worker_session(sidecar_path(wdir, "w-a"))
        wt.emit("checkpoint", shard=0)
        wt.emit("checkpoint", shard=1)
        close_worker_session(wt)
        # kill the worker mid-write: tear the final line
        path = Path(sidecar_path(wdir, "w-a"))
        path.write_text(path.read_text()[:-15])
        merged = merge_sidecars(telemetry, wdir, ["w-a"])
        telemetry.close()
        assert merged >= 1  # everything before the tear survives
        events = read_telemetry(tmp_path / "t.jsonl")
        assert classify_events(events) == ([], [])

    def test_disabled_session_merges_nothing(self, tmp_path):
        wdir = tmp_path / "w"
        wdir.mkdir()
        _write_sidecar(wdir, "w-a", "alpha")
        assert merge_sidecars(Telemetry(), wdir, ["w-a"]) == 0
        assert wdir.is_dir()  # nothing consumed


class TestPooledCampaignCapture:
    def test_pooled_shards_render_like_in_process_ones(self, tmp_path):
        spec = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="srrs"),
            faults=FaultPlanSpec(transient_ccf=30, permanent_sm=10,
                                 seu=10, seed=7),
            shards=4,
        )
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        run_campaign(spec, workers=2, telemetry=telemetry)
        telemetry.close()
        events = read_telemetry(log)
        assert classify_events(events) == ([], [])
        assert not (tmp_path / "t.jsonl.workers").exists()
        shard_spans = [e for e in events if e["type"] == "span_start"
                       and e["data"].get("name") == "shard"]
        assert len(shard_spans) == 4
        assert {e["data"]["worker"] for e in shard_spans} == {
            f"shard-{i:05d}" for i in range(4)}
        execute = next(n for n in build_spans(events)
                       if n.name == "execute")
        assert [c.name for c in execute.children] == ["shard"] * 4
