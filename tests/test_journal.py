"""The journal: a crash matrix over every log, and the one-module guard.

Crash matrix: each journal — campaign ``shards.jsonl`` and a telemetry
file — is cut at every byte offset inside its last two records, the way
a writer killed mid-line leaves it.  One append and one scan follow.  Every record complete
before the cut must survive, the new record must be present, and
nothing may raise.  The sweep runs on the journals alone (no
simulation); a handful of cuts of a real campaign store then resume to
the reference digest, and every cut of a worker sidecar merges the
events complete before it.

Guard: :mod:`repro.journal` is the only module in ``src/repro`` that
fsyncs, renames a file into place or opens a file for append, so the
crash rules cannot fork into a second copy again.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
from pathlib import Path
from typing import Callable, List, NamedTuple

import pytest

from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
from repro.campaigns import CampaignStore, resume_campaign, run_campaign
from repro.campaigns.store import ShardRecord
from repro.errors import ObsError
from repro.journal import canonical, replace_atomic, scan
from repro.obs import MemorySink, Telemetry
from repro.obs.sink import JsonlSink, read_telemetry
from repro.obs.worker import (close_worker_session, merge_sidecars,
                              sidecar_path, worker_session)

SRC = Path(__file__).resolve().parents[1] / "src"


class Journal(NamedTuple):
    """One log under test: where it lives and how its owner uses it."""

    path: Path
    lines: List[str]          # the records already in the log, in order
    new_line: str             # what the next append writes
    append: Callable[[], None]
    read: Callable[[], List[str]]  # the owner's scan, as canonical lines


def _shard(shard: int) -> ShardRecord:
    return ShardRecord(shard=shard, start=10 * shard, stop=10 * shard + 10,
                       policy="srrs",
                       counts={"SEUFault": {"detected": 7, "masked": 3}},
                       sdc_samples=(f"seu@{shard}",))


def _campaign_journal(root: Path) -> Journal:
    store = CampaignStore(root)
    return Journal(
        path=store.shards_path,
        lines=[_shard(i).to_line() for i in range(3)],
        new_line=_shard(3).to_line(),
        append=lambda: store.append(_shard(3)),
        read=lambda: [r.to_line() for r in store.load_records().values()],
    )


def _event(seq: int, etype: str = "heartbeat") -> dict:
    return {"type": etype, "seq": seq, "t_ms": float(seq),
            "data": {"done": seq, "total": 9}}


def _telemetry_journal(root: Path) -> Journal:
    path = root / "t.jsonl"
    header = _event(0, "telemetry_start")

    def resume() -> None:
        sink = JsonlSink(path)
        sink.emit(header)
        sink.close()

    return Journal(
        path=path,
        lines=[canonical(header)] + [canonical(_event(i)) for i in (1, 2)],
        new_line=canonical(header),
        append=resume,
        read=lambda: [canonical(e) for e in read_telemetry(path)],
    )


@pytest.fixture
def no_fsync(monkeypatch):
    """Skip fsync: a cut file already models what reached the disk."""
    monkeypatch.setattr("os.fsync", lambda fd: None)


@pytest.mark.parametrize("build", [_campaign_journal, _telemetry_journal],
                         ids=["campaign", "telemetry"])
def test_every_cut_in_the_last_two_records_then_append_and_scan(
        tmp_path, no_fsync, build):
    journal = build(tmp_path)
    full = "".join(line + "\n" for line in journal.lines).encode()
    ends, offset = [], 0
    for line in journal.lines:
        offset += len(line)
        ends.append(offset)  # the record is complete from here on
        offset += 1
    first_cut = ends[-3] + 1
    assert first_cut < len(full)
    for cut in range(first_cut, len(full) + 1):
        journal.path.write_bytes(full[:cut])
        journal.append()
        survivors = [line for line, end in zip(journal.lines, ends)
                     if end <= cut]
        assert journal.read() == survivors + [journal.new_line], cut
        assert journal.path.read_bytes().endswith(b"\n")


def test_every_cut_of_a_worker_sidecar_merges_the_events_before_it(
        tmp_path):
    # a pooled worker killed mid-line: the merge keeps each event whose
    # line was complete (its newline may be lost) and drops the rest
    directory = tmp_path / "t.jsonl.workers"
    directory.mkdir()
    path = Path(sidecar_path(directory, "shard-00000"))
    worker = worker_session(str(path))
    with worker.span("shard"):
        worker.emit("checkpoint", shard=0, path="shards.jsonl")
    close_worker_session(worker)
    full = path.read_bytes()
    lines = full.splitlines()
    ends = [sum(len(line) + 1 for line in lines[:i]) + len(lines[i])
            for i in range(len(lines))]
    merged_types = [json.loads(line)["type"] for line in lines]
    for cut in range(len(full) + 1):
        directory.mkdir(exist_ok=True)
        path.write_bytes(full[:cut])
        orchestrator = Telemetry(MemorySink())
        merged = merge_sidecars(orchestrator, directory, ["shard-00000"])
        expected = [etype for etype, end in zip(merged_types, ends)
                    if end <= cut and etype not in ("telemetry_start",
                                                    "telemetry_end")]
        assert merged == len(expected), cut
        assert [e["type"] for e in orchestrator.sink.events[1:]] == expected
        assert not directory.exists()


def _campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=24, permanent_sm=8, seu=8,
                             seed=11),
        shards=4,
    )


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """A reference report and a complete store of the same spec."""
    reference = run_campaign(_campaign_spec())
    root = tmp_path_factory.mktemp("finished")
    run_campaign(_campaign_spec(), store=CampaignStore(root))
    return reference, root


#: Cuts of a finished store's log, given the lengths (newline included)
#: of its second-last and last lines, counted from the second-last's start.
CAMPAIGN_CUTS = {
    "second-last-gone": lambda second_last, last: 0,
    "in-second-last": lambda second_last, last: second_last // 2,
    "second-last-newline-lost": lambda second_last, last: second_last - 1,
    "in-last": lambda second_last, last: second_last + last // 2,
    "last-newline-lost": lambda second_last, last: second_last + last - 1,
}


@pytest.mark.parametrize("cut", sorted(CAMPAIGN_CUTS))
def test_cut_campaign_store_resumes_to_the_reference(tmp_path,
                                                     finished_campaign, cut):
    reference, finished = finished_campaign
    shutil.copytree(finished, tmp_path / "store")
    store = CampaignStore(tmp_path / "store")
    raw = store.shards_path.read_bytes()
    lines = raw.splitlines(keepends=True)
    start = len(raw) - len(lines[-2]) - len(lines[-1])
    keep = start + CAMPAIGN_CUTS[cut](len(lines[-2]), len(lines[-1]))
    store.shards_path.write_bytes(raw[:keep])
    for _ in range(2):
        assert resume_campaign(store).digest() == reference.digest()


class TestJournal:
    def test_scan_tolerates_a_tear_only_at_the_end_or_a_boundary(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"a":1}\n{"a":\n{"start":1}\n{"b"')
        records, tears = scan(path, error=ObsError, what="test",
                              boundary=lambda r: "start" in r)
        assert records == [{"a": 1}, {"start": 1}]
        assert tears == [{"line": 2, "tear": "session"},
                         {"line": 4, "tear": "file"}]
        with pytest.raises(ObsError, match="corrupt test line 2"):
            scan(path, error=ObsError, what="test")

    def test_event_lines_keep_their_bytes(self, tmp_path):
        event = {"type": "heartbeat", "seq": 1, "t_ms": 0.5,
                 "data": {"label": "\u00b5s", "done": [1, 2]}}
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit(event)
        sink.close()
        assert (tmp_path / "t.jsonl").read_bytes() == (
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")

    def test_only_durable_journals_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("os.fsync", synced.append)
        sink = JsonlSink(tmp_path / "t.jsonl")
        for seq in range(3):
            sink.emit(_event(seq))
        sink.close()
        assert synced == []  # telemetry stays inside its overhead budget
        CampaignStore(tmp_path).append(_shard(0))
        assert len(synced) == 1

    def test_replace_atomic_leaves_only_the_target(self, tmp_path):
        target = tmp_path / "dir" / "m.json"
        replace_atomic(target, "new\n", error=ObsError)
        assert target.read_text() == "new\n"
        assert [p.name for p in target.parent.iterdir()] == ["m.json"]


# ----------------------------------------------------------------------
_APPEND_MODE = re.compile(r"^[rwxbt+]*a[rwxbt+]*$")


def _log_writes(source: str) -> List[str]:
    """``lineno: call`` for each fsync, rename or append-mode open."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ("fsync", "replace")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", ""))
        if (name in ("fsync", "replace") and isinstance(func, ast.Attribute)
                and getattr(func.value, "id", "") == "os"):
            found.append(f"{node.lineno}: os.{name}")
        if name == "open":
            modes = list(node.args) + [kw.value for kw in node.keywords
                                       if kw.arg == "mode"]
            if any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                   and _APPEND_MODE.match(arg.value) for arg in modes):
                found.append(f"{node.lineno}: open for append")
    return found


class TestOneJournalModule:
    def test_only_the_journal_fsyncs_renames_or_appends(self):
        offenders = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            if module != "repro/journal.py":
                found = _log_writes(path.read_text(encoding="utf-8"))
                if found:
                    offenders[module] = found
        assert offenders == {}

    def test_the_guard_sees_the_journal_and_planted_copies(self):
        journal = (SRC / "repro" / "journal.py").read_text(encoding="utf-8")
        assert len(_log_writes(journal)) == 4
        planted = ("import os\nfrom os import fsync\n"
                   "open(p, 'ab+')\nopen(p, mode='a', encoding='utf-8')\n"
                   "path.open('ab')\nos.replace(a, b)\nos.fsync(fd)\n"
                   "open(p, 'rb')\nopen('data.jsonl')\n")
        assert _log_writes(planted) == [
            "2: from os import fsync", "3: open for append",
            "4: open for append", "5: open for append", "6: os.replace",
            "7: os.fsync",
        ]
