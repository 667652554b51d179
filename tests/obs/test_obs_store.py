"""The telemetry archive: ObsStore manifest, content addressing, gc."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import DEFAULT_OBS_DIR, OBS_STORE_SCHEMA, ObsStore


def _events(*, kind: str = "campaign", spec_hash: str = "abc123",
            digest: str = "d1", extra_events: int = 0) -> list:
    """A minimal schema-valid single-session run stream."""
    events = [
        {"type": "telemetry_start", "seq": 0, "t_ms": 0.0,
         "data": {"schema": "repro-telemetry/v1", "version": "x"}},
        {"type": "run_start", "seq": 1, "t_ms": 0.1,
         "data": {"kind": kind, "label": "t", "spec_hash": spec_hash}},
        {"type": "span_start", "seq": 2, "t_ms": 0.2,
         "data": {"span": 1, "parent": None, "name": "execute"}},
        {"type": "span_end", "seq": 3, "t_ms": 5.2,
         "data": {"span": 1, "dur_ms": 5.0}},
        {"type": "run_end", "seq": 4, "t_ms": 5.3,
         "data": {"kind": kind, "digest": digest}},
    ]
    for i in range(extra_events):
        events.append({"type": "checkpoint", "seq": 5 + i,
                       "t_ms": 5.4 + i, "data": {"shard": i}})
    events.append({"type": "telemetry_end", "seq": 5 + extra_events,
                   "t_ms": 6.0 + extra_events,
                   "data": {"events": 6 + extra_events}})
    return events


def _write(path, events) -> None:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


@pytest.fixture
def store(tmp_path):
    return ObsStore(tmp_path / "archive")


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "t.jsonl"
    _write(path, _events())
    return path


class TestArchive:
    def test_entry_carries_schema_and_index_fields(self, store, log):
        entry = store.archive(log, tag="base")
        assert entry["schema"] == OBS_STORE_SCHEMA
        assert entry["tag"] == "base"
        assert entry["source"] == "t.jsonl"
        assert entry["sessions"] == 1
        assert entry["events"] == 6
        assert entry["spans"] == 1
        assert entry["kinds"] == ["campaign"]
        assert entry["spec_hashes"] == ["abc123"]
        assert entry["labels"] == ["t"]
        assert entry["digests"] == ["d1"]
        assert len(entry["run_id"]) == 16

    def test_run_file_is_stored_verbatim(self, store, log):
        entry = store.archive(log)
        stored = store.run_path(entry["run_id"])
        assert stored.read_bytes() == log.read_bytes()

    def test_archiving_identical_bytes_is_idempotent(self, store, log):
        first = store.archive(log, tag="original")
        second = store.archive(log, tag="other")
        assert second == first  # the original tag wins
        assert len(store.entries()) == 1

    def test_schema_invalid_telemetry_is_refused(self, store, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "warp_drive", "seq": 0, "t_ms": 0.0, '
                       '"data": {}}\n')
        with pytest.raises(ObsError, match="unknown event type"):
            store.archive(bad)
        assert store.entries() == []

    def test_missing_file_raises(self, store, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            store.archive(tmp_path / "absent.jsonl")

    def test_default_root_is_the_documented_directory(self):
        assert ObsStore().root.name == DEFAULT_OBS_DIR


class TestEntriesAndResolve:
    def test_entries_keep_archive_order(self, store, tmp_path):
        ids = []
        for i in range(3):
            path = tmp_path / f"r{i}.jsonl"
            _write(path, _events(digest=f"d{i}", extra_events=i))
            ids.append(store.archive(path)["run_id"])
        assert [e["run_id"] for e in store.entries()] == ids

    def test_torn_trailing_manifest_line_is_tolerated(self, store, log):
        entry = store.archive(log)
        with open(store.manifest_path, "a") as handle:
            handle.write('{"schema": "repro-obs-st')  # killed writer
        assert [e["run_id"] for e in store.entries()] == [entry["run_id"]]

    def test_archive_after_a_torn_archive_repairs_the_manifest(
            self, store, tmp_path):
        paths = []
        for i in range(3):
            paths.append(tmp_path / f"r{i}.jsonl")
            _write(paths[-1], _events(digest=f"d{i}"))
        first = store.archive(paths[0])
        store.archive(paths[1])
        # the archive of the second run was killed mid-line
        torn = store.manifest_path.read_bytes()[:-40]
        store.manifest_path.write_bytes(torn)
        second = store.archive(paths[2], tag="second")
        assert [e["run_id"] for e in store.entries()] == [
            first["run_id"], second["run_id"]]
        assert store.resolve("second") == second
        retried = store.archive(paths[1])  # a third archive succeeds
        assert [e["run_id"] for e in store.entries()] == [
            first["run_id"], second["run_id"], retried["run_id"]]

    def test_mid_manifest_corruption_raises(self, store, log):
        store.archive(log)
        text = store.manifest_path.read_text()
        store.manifest_path.write_text("GARBAGE\n" + text)
        with pytest.raises(ObsError, match="corrupt manifest line 1"):
            store.entries()

    def test_foreign_schema_line_raises(self, store, log):
        store.archive(log)
        with open(store.manifest_path, "a") as handle:
            handle.write('{"schema": "other/v9", "run_id": "x"}\n')
        with pytest.raises(ObsError, match="not a repro-obs-store/v1"):
            store.entries()

    def test_resolve_accepts_unique_prefix(self, store, log):
        entry = store.archive(log)
        assert store.resolve(entry["run_id"][:6]) == entry

    def test_resolve_matches_exact_tag_first(self, store, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write(a, _events(digest="da"))
        _write(b, _events(digest="db"))
        tagged = store.archive(a, tag="nightly")
        store.archive(b)
        assert store.resolve("nightly") == tagged

    def test_resolve_unknown_ref_raises(self, store, log):
        store.archive(log)
        with pytest.raises(ObsError, match="no archived run matches"):
            store.resolve("ffff")

    def test_resolve_ambiguous_prefix_raises(self, store, tmp_path):
        for i in range(4):
            path = tmp_path / f"r{i}.jsonl"
            _write(path, _events(digest=f"d{i}"))
            store.archive(path)
        with pytest.raises(ObsError, match="ambiguous"):
            store.resolve("")


class TestLoadEvents:
    def test_round_trip(self, store, log):
        entry = store.archive(log)
        assert store.load_events(entry["run_id"]) == _events()

    def test_tampered_run_file_is_detected(self, store, log):
        entry = store.archive(log)
        path = store.run_path(entry["run_id"])
        path.write_text(path.read_text().replace("execute", "exXcute"))
        with pytest.raises(ObsError, match="content digest"):
            store.load_events(entry["run_id"])

    def test_missing_run_file_raises(self, store, log):
        entry = store.archive(log)
        store.run_path(entry["run_id"]).unlink()
        with pytest.raises(ObsError, match="no stream file"):
            store.load_events(entry["run_id"])


class TestWriteFailures:
    @pytest.mark.parametrize("failing", ["fsync", "write"])
    def test_full_disk_raises_obs_error(self, store, log, tmp_path,
                                        monkeypatch, full_disk, failing):
        first = store.archive(log)
        _write(tmp_path / "r2.jsonl", _events(digest="d2"))
        full_disk(failing)
        with pytest.raises(ObsError, match="No space left") as err:
            store.archive(tmp_path / "r2.jsonl")
        assert isinstance(err.value.__cause__, OSError)
        monkeypatch.undo()
        second = store.archive(tmp_path / "r2.jsonl")
        assert [e["run_id"] for e in store.entries()] == [
            first["run_id"], second["run_id"]]

    @pytest.mark.parametrize("failing", ["fsync", "write"])
    def test_gc_on_a_full_disk_raises_obs_error_and_keeps_the_manifest(
            self, store, tmp_path, monkeypatch, full_disk, failing):
        for i in range(2):
            _write(tmp_path / f"r{i}.jsonl", _events(digest=f"d{i}"))
            store.archive(tmp_path / f"r{i}.jsonl")
        before = store.manifest_path.read_bytes()
        full_disk(failing)
        with pytest.raises(ObsError, match="No space left"):
            store.gc(keep=1)
        assert store.manifest_path.read_bytes() == before
        monkeypatch.undo()
        assert len(store.gc(keep=1)) == 1


class TestGc:
    def test_keeps_last_n_per_kinds_spec_group(self, store, tmp_path):
        ids = {}
        for kind in ("campaign", "stream"):
            for i in range(3):
                path = tmp_path / f"{kind}{i}.jsonl"
                _write(path, _events(kind=kind, digest=f"{kind}{i}"))
                ids[(kind, i)] = store.archive(path)["run_id"]
        removed = store.gc(keep=2)
        removed_ids = {e["run_id"] for e in removed}
        # the oldest run of each group goes, the newer two stay
        assert removed_ids == {ids[("campaign", 0)], ids[("stream", 0)]}
        kept = {e["run_id"] for e in store.entries()}
        assert ids[("campaign", 2)] in kept
        assert ids[("stream", 2)] in kept
        for run_id in removed_ids:
            assert not store.run_path(run_id).exists()
        for run_id in kept:
            assert store.run_path(run_id).exists()

    def test_gc_deletes_orphan_run_files(self, store, log):
        store.archive(log)
        orphan = store.runs_dir / ("0" * 16 + ".jsonl")
        orphan.write_text("{}\n")
        store.gc(keep=5)
        assert not orphan.exists()

    def test_keep_below_one_raises(self, store):
        with pytest.raises(ObsError, match="keep must be >= 1"):
            store.gc(keep=0)

    def test_gc_on_empty_archive_is_a_noop(self, store):
        assert store.gc(keep=1) == []
        assert not store.manifest_path.exists()
