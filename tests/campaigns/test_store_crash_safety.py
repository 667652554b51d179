"""Crash safety of the campaign store: torn tails and the manifest.

A writer killed mid-append leaves half a line at the end of
``shards.jsonl``.  The next append must not write onto it — that would
lose the re-run shard and, one append later, make every load fail with
"corrupt shard line in the middle".  The manifest is written through a
temp file and an atomic rename, so a kill never leaves half of one.  A
full disk ends in a typed ``CampaignError``, and a resume on a freed disk
reaches the reference report.
"""

from __future__ import annotations

import os

import pytest

from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
from repro.campaigns import CampaignStore, resume_campaign, run_campaign
from repro.campaigns.store import ShardRecord
from repro.errors import CampaignError


def _record(shard: int) -> ShardRecord:
    return ShardRecord(shard=shard, start=10 * shard, stop=10 * shard + 10,
                       policy="srrs",
                       counts={"SEUFault": {"detected": 7, "masked": 3}})


def _spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=50, permanent_sm=25, seu=25,
                             seed=3),
        shards=4,
    )


def _tear(store: CampaignStore, record: ShardRecord, keep: int) -> None:
    """Simulate a writer killed after ``keep`` bytes of ``record``'s line."""
    with open(store.shards_path, "a", encoding="utf-8") as handle:
        handle.write((record.to_line() + "\n")[:keep])


class TestTornTail:
    @pytest.mark.parametrize("keep", [1, 20, -2])
    def test_tear_then_append_append_load_keeps_every_shard(
            self, tmp_path, keep):
        store = CampaignStore(tmp_path)
        store.append(_record(0))
        store.append(_record(1))
        line = _record(2).to_line()
        _tear(store, _record(2), keep if keep > 0 else len(line) + keep)
        assert set(store.load_records()) == {0, 1}  # torn shard re-runs
        store.append(_record(2))
        store.append(_record(3))
        assert store.load_records() == {i: _record(i) for i in range(4)}
        assert store.shards_path.read_text().endswith("\n")

    def test_complete_line_missing_only_its_newline_is_kept(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(_record(0))
        _tear(store, _record(1), len(_record(1).to_line()))
        assert set(store.load_records()) == {0, 1}
        store.append(_record(2))
        assert store.load_records() == {i: _record(i) for i in range(3)}

    def test_fully_torn_first_line(self, tmp_path):
        store = CampaignStore(tmp_path)
        _tear(store, _record(0), 5)
        store.append(_record(1))
        assert store.load_records() == {1: _record(1)}

    def test_resume_after_a_torn_append_reaches_the_reference(
            self, tmp_path):
        reference = run_campaign(_spec())
        store = CampaignStore(tmp_path)
        run_campaign(_spec(), store=store, max_shards=2)
        lines = store.shards_path.read_text().splitlines(keepends=True)
        # the second shard's writer died mid-line
        store.shards_path.write_text(lines[0] + lines[1][:30])
        partial = run_campaign(_spec(), store=store, max_shards=1)
        assert partial.total < reference.total
        resumed = resume_campaign(store)
        assert resumed.to_dict() == reference.to_dict()
        assert resumed.digest() == reference.digest()
        # and the log stays readable for every later reader
        assert resume_campaign(store).digest() == reference.digest()


class TestAtomicManifest:
    def test_written_through_fsynced_temp_file_and_rename(
            self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync",
                            lambda fd: calls.append("fsync") or real_fsync(fd))
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: calls.append(("replace", str(dst)))
            or real_replace(src, dst))
        store = CampaignStore(tmp_path)
        store.initialise(_spec())
        assert calls == ["fsync", ("replace", str(store.manifest_path))]
        assert store.load_spec().config_hash == _spec().config_hash
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "campaign.json"]

    def test_kill_before_rename_leaves_no_manifest(self, tmp_path,
                                                   monkeypatch):
        def killed(src, dst):
            raise OSError("killed before rename")

        monkeypatch.setattr(os, "replace", killed)
        store = CampaignStore(tmp_path)
        with pytest.raises(CampaignError, match="killed before rename") as err:
            store.initialise(_spec())
        assert isinstance(err.value.__cause__, OSError)
        assert not store.exists()
        monkeypatch.undo()
        store.initialise(_spec())  # a retry starts cleanly
        assert store.load_spec().config_hash == _spec().config_hash


class TestFullDisk:
    @pytest.mark.parametrize("failing", ["fsync", "write"])
    def test_full_disk_mid_campaign_then_resume_reaches_the_reference(
            self, tmp_path, monkeypatch, full_disk, failing):
        reference = run_campaign(_spec())
        store = CampaignStore(tmp_path)
        # when only the fsync fails, the shard's line is complete on disk
        unconfirmed = 1 if failing == "fsync" else 0
        full_disk(failing, after=2)  # the manifest and one shard fit
        with pytest.raises(CampaignError, match="No space left") as err:
            run_campaign(_spec(), store=store)
        assert isinstance(err.value.__cause__, OSError)
        assert len(store.load_records()) == 1 + unconfirmed
        full_disk(failing, after=1)  # a resume fills the disk again
        with pytest.raises(CampaignError, match="No space left"):
            resume_campaign(store)
        assert len(store.load_records()) == 2 + unconfirmed
        monkeypatch.undo()
        for _ in range(2):
            resumed = resume_campaign(store)
            assert resumed.digest() == reference.digest()
        assert store.shards_path.read_text().endswith("\n")

    @pytest.mark.parametrize("failing", ["fsync", "write"])
    def test_full_disk_on_initialise_raises_and_leaves_no_manifest(
            self, tmp_path, monkeypatch, full_disk, failing):
        store = CampaignStore(tmp_path / "store")
        full_disk(failing)
        with pytest.raises(CampaignError, match="No space left"):
            store.initialise(_spec())
        assert not store.exists()
        monkeypatch.undo()
        store.initialise(_spec())
        assert store.load_spec().config_hash == _spec().config_hash

    def test_cli_exits_1_with_an_error_line(self, tmp_path, capsys,
                                            full_disk):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(_spec().to_json())
        full_disk("fsync", after=1)
        code = main(["campaign", "run", "--spec", str(spec),
                     "--dir", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write shard file")
        assert "No space left on device" in err
