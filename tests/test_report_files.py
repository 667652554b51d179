"""``--out`` report files are replaced whole or not at all, and read back
only when well-typed.

``stream run --out``, ``platform run --out`` and ``obs export --out``
write through :func:`repro.journal.replace_atomic`: a write that fails
halfway (a full disk, a kill) leaves the previous report at that path
intact and ends the command with ``error: …`` and exit 1.  The
``full_disk`` fixture fails the journal's writes halfway; a command
writing its report some other way never sees the full disk.  ``stream
report`` and ``platform report`` reject a saved report whose field has
the wrong JSON type or an unknown key, or that is not its own canonical
form (a derived value that disagrees with the fields it is computed
from, a written key removed), naming the field by its path from the
report down; ``CampaignReport.from_dict`` rejects a ``campaign run
--json`` report edited the same way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.cli import main
from repro.errors import FaultInjectionError, PlatformError, StreamError
from repro.faults.report import CampaignReport
from repro.obs.session import Telemetry
from repro.platform.report import PlatformReport
from repro.streams.report import StreamReport

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


def _edits(*edits):
    """Payload edit applying each of ``edits`` in turn."""
    def edit(payload):
        for each in edits:
            each(payload)
    return edit


#: (saved report, field edit, the error's text from the field path on)
MISTYPED = {
    "stream-frames": ("stream", _set("frames", "many"),
                      "StreamReport.frames must be an integer"),
    "stream-latency": ("stream", _set("latency_ms", 5),
                       "StreamReport.latency_ms must be an object"),
    "platform-totals": ("platform", _set("totals.completed", "x"),
                        "PlatformReport.totals.completed must be 4.0, "
                        "got 'x'"),
    "platform-devices": ("platform", _set("devices", 3),
                         "PlatformReport.devices must be an object"),
    # a foreign key, a derived value that disagrees with the counters
    # it is computed from, a key no report has: a nested object's error
    # names the field it sits in
    "stream-windows": ("stream", _set("windows", {"a": 1}),
                       "StreamReport.windows: StreamWindows: "
                       "unknown field(s) a"),
    "stream-miss-rate": ("stream", _set("miss_rate", 0.5),
                         "StreamReport.miss_rate must be 0.0"),
    "stream-unknown": ("stream", _set("bogus", 1),
                       "StreamReport: unknown field(s) bogus"),
    "platform-task-ok": ("platform", _set("tasks.radar-cfar.ok", "yes"),
                         "PlatformReport.tasks['radar-cfar'].ok must be "
                         "True, got 'yes'"),
    "platform-verdict": ("platform", _set("asil.verdict", "pass!"),
                         "PlatformReport.asil.verdict must be 'pass', "
                         "got 'pass!'"),
    "platform-placement": ("platform", _set("placement", {"ghost": 3}),
                           "PlatformReport.placement['camera-perception'] "
                           "is missing"),
    # the rollup, the totals, the placement and each task's safe rate
    # are derived from the tasks: a task that fails under an unedited
    # verdict (its one completed frame missed), an edited total, device
    # total or safe rate and a placement that disagrees with its task's
    # device
    "platform-failing-task": ("platform", _edits(
        _set("tasks.camera-perception.deadline_misses", 1),
        _set("tasks.camera-perception.ftti_ok", False),
        _set("tasks.camera-perception.ok", False)),
        "PlatformReport.asil.verdict must be 'fail', got 'pass'"),
    "platform-totals-sdc": ("platform", _set("totals.faults_sdc", 99.0),
                            "PlatformReport.totals.faults_sdc must be 0.0, "
                            "got 99.0"),
    "platform-device-totals-frames": (
        "platform", _set("device_totals.gpu0.frames", 99.0),
        "PlatformReport.device_totals['gpu0'].frames must be 1.0, "
        "got 99.0"),
    "platform-task-safe-rate": (
        "platform", _set("tasks.radar-cfar.safe_rate", 0.5),
        "PlatformReport.tasks['radar-cfar'].safe_rate must be 1.0, "
        "got 0.5"),
    "platform-placement-device": (
        "platform", _set("placement.camera-perception", "gpu1"),
        "PlatformReport.placement['camera-perception'] must be 'gpu0', "
        "got 'gpu1'"),
    # a device stores only its spec: its tasks and counters come from
    # the tasks placed on it
    "platform-device-tasks": ("platform", _edits(
        _set("devices.gpu0.faults_sdc", 99.0),
        _set("devices.gpu0.tasks", ["radar-cfar"])),
        "PlatformReport.devices['gpu0']: PlatformDevice: unknown field(s) "
        "faults_sdc, tasks; known: capacity, gpu, preset"),
    "platform-device-sdc": ("platform", _set("devices.gpu0.faults_sdc", 99.0),
                            "PlatformReport.devices['gpu0']: PlatformDevice: "
                            "unknown field(s) faults_sdc"),
    "platform-task-off-the-platform": (
        "platform", _edits(_set("tasks.radar-cfar.device", "gpu9"),
                           _set("placement.radar-cfar", "gpu9")),
        "PlatformReport.tasks.radar-cfar.device 'gpu9' is not a device"),
    # a derived key is written, so a payload without it is not canonical
    "stream-safe-rate-removed": ("stream",
                                 lambda payload: payload.pop("safe_rate"),
                                 "StreamReport.safe_rate is missing"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_a_mistyped_report_field_is_a_typed_error(tmp_path, capsys, case):
    kind, edit, message = MISTYPED[case]
    out = tmp_path / "report.json"
    assert main([kind, "run", "--spec", str(SPECS / f"{kind}.json"),
                 "--frames", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    edit(payload)
    out.write_text(json.dumps(payload))
    capsys.readouterr()

    assert main([kind, "report", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {message}")


#: (field edit of the example campaign's report under ``default``, the
#: error's text): its true coverage is 908 detected of 1000 dangerous
CAMPAIGN_MISTYPED = {
    "campaign-coverage": (_set("detection_coverage", 1.0),
                          "CampaignReport.detection_coverage must be 0.908"),
    "campaign-sdc-samples": (_set("sdc_samples", "xyz"),
                             "CampaignReport.sdc_samples must be a list"),
    "campaign-no-by-kind": (lambda payload: payload.pop("by_kind"),
                            "CampaignReport.by_kind is missing"),
    # the key to_dict drops again for a report without a sampling design
    "campaign-v1-weighted-rates": (_set("weighted_rates", None),
                                   "CampaignReport.weighted_rates is not "
                                   "written"),
}


@pytest.mark.parametrize("case", sorted(CAMPAIGN_MISTYPED))
def test_a_mistyped_campaign_report_field_is_a_typed_error(tmp_path, capsys,
                                                           case):
    edit, message = CAMPAIGN_MISTYPED[case]
    spec = json.loads((SPECS / "campaign.json").read_text())
    spec["run"]["policy"] = "default"
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["campaign", "run", "--spec", str(tmp_path / "spec.json"),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    CampaignReport.from_dict(payload)
    edit(payload)

    with pytest.raises(FaultInjectionError, match=f"^{message}"):
        CampaignReport.from_dict(payload)


@pytest.mark.parametrize("report, error", [(StreamReport, StreamError),
                                           (PlatformReport, PlatformError)])
def test_a_report_that_is_not_json_is_the_subsystems_error(report, error):
    with pytest.raises(error, match=f"^invalid {report.__name__} JSON: "):
        report.from_json("{x")
