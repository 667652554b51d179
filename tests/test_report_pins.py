"""Pinned ``digest()`` and canonical JSON of shipped stream/platform runs.

A saved report is safety evidence: its ``digest()`` is cited as the
provenance of the coverage, FTTI and ASIL figures it carries, so a
change to the report JSON form silently orphans every stored report.
These values pin the ``digest()`` and the sha256 of
``to_json(indent=2)`` (the bytes ``--out`` writes) of:

* ``examples/specs/stream.json`` at 200 frames;
* ``stream run --task NAME`` for every ADAS library task;
* ``examples/specs/platform.json`` at one worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.platform import PlatformSpec
from repro.api.stream import StreamSpec
from repro.platform.runner import run_platform
from repro.streams.runner import run_stream
from repro.workloads.adas import ADAS_TASKS

SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"

#: report key -> (digest(), sha256 of to_json(indent=2)).
PINS = {
    'platform/examples': ('18bdf17628d2bd0b', 'a8b07e871fead2a809bc4645bd1818bec6fff84d73a015264acc29c9e9b3996e'),
    'stream/examples': ('cb4b1694fb0d6d1a', '616ff2ee3f1b948148e69945670cb9bade955f8df148d70fb9f9e32add975dd7'),
    'task/camera-perception': ('a519ccd18a95eb4c', '20c6dc55ba812e09ef8b9671fd875223a8f3d19b36c49eb16d0adcf86b64d148'),
    'task/lidar-segmentation': ('620a1e178dab06fc', '2cdc05436006596eef0b267fa6bca07a4529f2beba7784a40aafd61648ab2828'),
    'task/radar-cfar': ('96d0c7f1eb3239dd', '6441b91bfcbdf2ee365d201c2240748673029556f813676fa07c779ddfeb77ee'),
    'task/trajectory-scoring': ('37fc57e3502a1f28', '345899ad261ac16f102dc562cf1a55cac4996263797423e6e2536fa54d9e906a'),
}


def _pin(report):
    text = report.to_json(indent=2)
    return report.digest(), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(key):
    kind, _, name = key.partition("/")
    if kind == "stream":
        spec = StreamSpec.from_json((SPECS_DIR / "stream.json").read_text())
        return run_stream(replace(spec, frames=200))
    if kind == "task":
        return run_stream(StreamSpec.for_task(name))
    spec = PlatformSpec.from_json((SPECS_DIR / "platform.json").read_text())
    return run_platform(spec, workers=1)


def _keys():
    return (["stream/examples", "platform/examples"]
            + [f"task/{task.name}" for task in ADAS_TASKS])


def test_every_shipped_report_is_pinned():
    assert sorted(_keys()) == sorted(PINS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_report_json_and_digest_match_the_pin(key):
    assert _pin(_report(key)) == PINS[key]
