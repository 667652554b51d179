"""``--out`` report files are replaced whole or not at all, and read back
only when well-typed.

``stream run --out``, ``platform run --out`` and ``obs export --out``
write through :func:`repro.journal.replace_atomic`: a write that fails
halfway (a full disk, a kill) leaves the previous report at that path
intact and ends the command with ``error: …`` and exit 1.  The
``full_disk`` fixture fails the journal's writes halfway; a command
writing its report some other way never sees the full disk.  ``stream
report`` and ``platform report`` reject a saved report whose field has
the wrong JSON type the same way, naming the field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.cli import main
from repro.obs.session import Telemetry

SPECS = Path(__file__).resolve().parents[1] / "examples" / "specs"
OLD = '{"previous": "report"}\n'


def _telemetry_log(root: Path) -> Path:
    log = root / "t.jsonl"
    telemetry = Telemetry.create(path=log)
    with telemetry.span("phase"):
        pass
    telemetry.close()
    return log


#: command -> its argv writing ``--out OUT`` (``root``: scratch dir).
COMMANDS: Dict[str, Callable[[Path, Path], List[str]]] = {
    "stream-run": lambda root, out: [
        "stream", "run", "--spec", str(SPECS / "stream.json"),
        "--frames", "1", "--out", str(out)],
    "platform-run": lambda root, out: [
        "platform", "run", "--spec", str(SPECS / "platform.json"),
        "--frames", "1", "--out", str(out)],
    "obs-export": lambda root, out: [
        "obs", "export", str(_telemetry_log(root)), "--chrome",
        "--out", str(out)],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_write_failing_halfway_keeps_the_previous_report(
        tmp_path, capsys, monkeypatch, full_disk, command):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "report.json"
    out.write_text(OLD)
    argv = COMMANDS[command](tmp_path, out)

    full_disk("write")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No space left on device" in err
    assert out.read_text() == OLD
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]

    monkeypatch.undo()
    assert main(argv) == 0
    assert json.loads(out.read_text()) != json.loads(OLD)


def _set(path: str, value):
    """Payload edit setting the dotted ``path`` to ``value``."""
    def edit(payload):
        *parents, leaf = path.split(".")
        for key in parents:
            payload = payload[key]
        payload[leaf] = value
    return edit


#: (saved report, field edit, field named in the error)
MISTYPED = {
    "stream-frames": ("stream", _set("frames", "many"), "'frames'"),
    "stream-latency": ("stream", _set("latency_ms", 5), "'latency_ms'"),
    "platform-totals": ("platform", _set("totals.completed", "x"),
                        "'totals.completed'"),
    "platform-devices": ("platform", _set("devices", 3), "'devices'"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_a_mistyped_report_field_is_a_typed_error(tmp_path, capsys, case):
    kind, edit, field = MISTYPED[case]
    out = tmp_path / "report.json"
    assert main([kind, "run", "--spec", str(SPECS / f"{kind}.json"),
                 "--frames", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    edit(payload)
    out.write_text(json.dumps(payload))
    capsys.readouterr()

    assert main([kind, "report", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
