"""A pool worker killed mid-device ends in a typed, reportable error."""

from __future__ import annotations

import os

import pytest

import repro.platform.runner as runner
from repro.api import StreamSpec
from repro.api.platform import DeviceSpec, PlacementSpec, PlatformSpec
from repro.cli import main
from repro.errors import PoolError
from repro.obs import MemorySink, Telemetry

_run_device = runner._run_device


def _die_mid_device(item, telemetry):
    """Device function whose worker dies on ``gpu1`` (pickled by ref)."""
    if item[0] == "gpu1":
        os._exit(9)
    return _run_device(item, telemetry)


def _spec() -> PlatformSpec:
    return PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="pcie4-discrete")),
        tasks=(StreamSpec.for_task("camera-perception", frames=150),
               StreamSpec.for_task("radar-cfar", frames=150),
               StreamSpec.for_task("trajectory-scoring", frames=150)),
        placement=PlacementSpec(policy="balanced"),
    )


def test_killed_device_worker_raises_pool_error(monkeypatch):
    reference = runner.run_platform(_spec(), workers=1)
    assert "gpu1" in set(reference.placement.values())
    monkeypatch.setattr(runner, "_run_device", _die_mid_device)
    telemetry = Telemetry(MemorySink())
    with pytest.raises(PoolError, match="device-"):
        runner.run_platform(_spec(), workers=2, telemetry=telemetry)
    errors = [e["data"] for e in telemetry.sink.events
              if e["type"] == "worker_error"]
    assert len(errors) == 1 and errors[0]["key"].startswith("device-")
    # the platform is a pure function of its spec: a clean re-run
    # reproduces the reference bit for bit
    monkeypatch.undo()
    assert runner.run_platform(_spec(), workers=2).digest() == \
        reference.digest()


def test_cli_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "platform.json"
    spec_path.write_text(_spec().to_json())
    monkeypatch.setattr(runner, "_run_device", _die_mid_device)
    code = main(["platform", "run", "--spec", str(spec_path),
                 "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
