"""Telemetry observes, it never feeds back: digests are bit-identical
with telemetry off, on, or torn mid-run.

These tests pin the tentpole contract of repro.obs — every report is a
pure function of (spec, seed), and attaching any combination of sink,
ticker or heartbeat schedule must not change a single reported bit.
"""

from __future__ import annotations

import io

from repro.api import (
    CampaignSpec,
    DeviceSpec,
    FaultPlanSpec,
    PlacementSpec,
    PlatformSpec,
    RunSpec,
    StreamSpec,
    WorkloadSpec,
)
from repro.campaigns import CampaignStore, resume_campaign, run_campaign
from repro.obs import (
    MemorySink,
    ProgressTicker,
    Telemetry,
    classify_events,
    read_telemetry,
)
from repro.platform import run_platform
from repro.streams import run_stream


def _campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20,
                             seed=7),
        shards=6,
    )


def _stream_spec(frames: int = 400) -> StreamSpec:
    return StreamSpec.for_task("camera-perception", frames=frames)


def _platform_spec() -> PlatformSpec:
    return PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="pcie4-discrete"),
                 DeviceSpec(name="gpu2", preset="embedded-igpu")),
        tasks=(StreamSpec.for_task("camera-perception", frames=150),
               StreamSpec.for_task("radar-cfar", frames=150),
               StreamSpec.for_task("lidar-segmentation", frames=150)),
        placement=PlacementSpec(policy="balanced"),
    )


def _session(progress: bool = False) -> Telemetry:
    ticker = (ProgressTicker(io.StringIO(), min_interval_s=0.0)
              if progress else None)
    return Telemetry(MemorySink(), progress=ticker, heartbeat_s=0.001)


class TestCampaignNeutrality:
    def test_instrumented_run_matches_plain_run(self):
        plain = run_campaign(_campaign_spec(), workers=1)
        telemetry = _session(progress=True)
        instrumented = run_campaign(_campaign_spec(), workers=1,
                                    telemetry=telemetry)
        telemetry.close()
        assert instrumented.digest() == plain.digest()
        assert instrumented.to_dict() == plain.to_dict()
        assert classify_events(telemetry.sink.events) == ([], [])

    def test_kill_and_resume_with_telemetry_stays_bit_identical(
            self, tmp_path):
        plain = run_campaign(_campaign_spec(), workers=1)

        log = tmp_path / "t.jsonl"
        first = Telemetry.create(path=log)
        store = CampaignStore(tmp_path / "store")
        run_campaign(_campaign_spec(), store=store, workers=2,
                     max_shards=3, telemetry=first)
        first.close()

        second = Telemetry.create(path=log)  # resume appends a session
        resumed = resume_campaign(store, workers=2, telemetry=second)
        second.close()

        assert resumed.digest() == plain.digest()
        assert resumed.to_dict() == plain.to_dict()
        events = read_telemetry(log)
        assert classify_events(events) == ([], [])
        assert sum(e["type"] == "telemetry_start" for e in events) == 2

    def test_resume_after_torn_telemetry_line_stays_bit_identical(
            self, tmp_path):
        # the writer is killed mid-event-line: the campaign store decides
        # the resume, the torn telemetry file stays readable, and the
        # final report is still bit-identical
        plain = run_campaign(_campaign_spec(), workers=1)

        log = tmp_path / "t.jsonl"
        first = Telemetry.create(path=log)
        store = CampaignStore(tmp_path / "store")
        run_campaign(_campaign_spec(), store=store, max_shards=2,
                     telemetry=first)
        # simulate the kill: drop the close() and tear the last line
        text = log.read_text()
        log.write_text(text[:len(text) - 17])

        second = Telemetry.create(path=log)
        resumed = resume_campaign(store, telemetry=second)
        second.close()

        assert resumed.digest() == plain.digest()
        events = read_telemetry(log)
        assert sum(e["type"] == "telemetry_start" for e in events) == 2


class TestWorkerSidecarNeutrality:
    """Pooled worker capture observes too: sidecars on, off, or torn
    never move a digest bit."""

    def test_pooled_campaign_with_sidecars_matches_plain(self, tmp_path):
        plain = run_campaign(_campaign_spec(), workers=2)
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        instrumented = run_campaign(_campaign_spec(), workers=2,
                                    telemetry=telemetry)
        telemetry.close()
        assert instrumented.digest() == plain.digest()
        assert instrumented.to_dict() == plain.to_dict()
        events = read_telemetry(log)
        assert classify_events(events) == ([], [])
        # sidecars were merged and cleaned up, workers are visible
        assert not (tmp_path / "t.jsonl.workers").exists()
        assert any("worker" in e.get("data", {}) for e in events)

    def test_memory_sink_disables_sidecars_without_changing_digests(
            self, tmp_path):
        plain = run_campaign(_campaign_spec(), workers=2)
        telemetry = _session()
        instrumented = run_campaign(_campaign_spec(), workers=2,
                                    telemetry=telemetry)
        telemetry.close()
        assert instrumented.digest() == plain.digest()
        assert classify_events(telemetry.sink.events) == ([], [])
        # memory sinks have no sidecar directory to leave behind
        assert list(tmp_path.iterdir()) == []

    def test_torn_worker_sidecar_never_reaches_the_report(self, tmp_path):
        from repro.obs import merge_sidecars, sidecar_dir

        plain = run_campaign(_campaign_spec(), workers=2)
        log = tmp_path / "t.jsonl"
        telemetry = Telemetry.create(path=log)
        instrumented = run_campaign(_campaign_spec(), workers=2,
                                    telemetry=telemetry)
        # a late worker is killed mid-write: its sidecar has a torn
        # tail when the next merge folds it in
        wdir = sidecar_dir(telemetry)
        torn = wdir / "worker-shard-99999.jsonl"
        torn.write_text(
            '{"type": "telemetry_start", "seq": 0, "t_ms": 0.0, '
            '"data": {"schema": "repro-telemetry/v1", "version": "x"}}\n'
            '{"type": "checkpoint", "seq": 1, "t_ms": 0.5, "da')
        merge_sidecars(telemetry, wdir, ["shard-99999"])
        telemetry.close()
        assert instrumented.digest() == plain.digest()
        assert classify_events(read_telemetry(log)) == ([], [])


class TestStreamNeutrality:
    def test_instrumented_run_matches_plain_run(self):
        plain = run_stream(_stream_spec())
        telemetry = _session(progress=True)
        instrumented = run_stream(_stream_spec(), telemetry=telemetry)
        telemetry.close()
        assert instrumented.digest() == plain.digest()
        assert instrumented.to_dict() == plain.to_dict()
        assert classify_events(telemetry.sink.events) == ([], [])

    def test_telemetry_window_rechunking_is_invisible(self):
        # instrumentation re-chunks arrival batches to bound event
        # volume; the report must not see the different chunking
        plain = run_stream(_stream_spec(), chunk_frames=97)
        telemetry = _session()
        instrumented = run_stream(_stream_spec(), chunk_frames=97,
                                  telemetry=telemetry)
        telemetry.close()
        assert instrumented.digest() == plain.digest()

    def test_null_session_matches_plain_run(self):
        plain = run_stream(_stream_spec())
        nulled = run_stream(_stream_spec(), telemetry=Telemetry())
        assert nulled.digest() == plain.digest()
        assert nulled.to_dict() == plain.to_dict()


class TestPlatformNeutrality:
    def test_three_device_run_matches_across_all_modes(self):
        spec = _platform_spec()
        plain = run_platform(spec, workers=1)

        telemetry = _session(progress=True)
        instrumented = run_platform(spec, workers=1, telemetry=telemetry)
        telemetry.close()

        pooled_telemetry = _session()
        pooled = run_platform(spec, workers=3, telemetry=pooled_telemetry)
        pooled_telemetry.close()

        assert instrumented.digest() == plain.digest()
        assert instrumented.to_dict() == plain.to_dict()
        assert pooled.digest() == plain.digest()
        assert classify_events(telemetry.sink.events) == ([], [])
        assert classify_events(pooled_telemetry.sink.events) == ([], [])

    def test_device_events_cover_every_device_in_both_modes(self):
        spec = _platform_spec()
        for workers in (1, 3):
            telemetry = _session()
            run_platform(spec, workers=workers, telemetry=telemetry)
            telemetry.close()
            ends = [e["data"]["device"] for e in telemetry.sink.events
                    if e["type"] == "device_end"]
            assert sorted(ends) == ["gpu0", "gpu1", "gpu2"]
