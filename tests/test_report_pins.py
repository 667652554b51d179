"""Pinned ``digest()`` and canonical JSON of shipped campaign/stream/platform runs.

A saved report is safety evidence: its ``digest()`` is cited as the
provenance of the coverage, FTTI and ASIL figures it carries, so a
change to the report JSON form silently orphans every stored report.
These values pin the ``digest()`` and the sha256 of
``to_json(indent=2)`` (the bytes ``--out`` writes) of:

* ``examples/specs/stream.json`` at 200 frames;
* ``stream run --task NAME`` for every ADAS library task;
* ``examples/specs/platform.json`` at one worker.

and the ``digest()`` and the sha256 of the ``campaign report --json``
output of ``examples/specs/campaign.json`` under ``srrs`` and
``default``, of a stratified and an importance-sampled run of it (which
carry ``weighted_rates``), and of a one-injection partial stratified
fold (whose ``weighted_rates`` is ``null``).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.campaign import CampaignSpec
from repro.api.platform import PlatformSpec
from repro.api.stats import SamplingSpec
from repro.api.stream import StreamSpec
from repro.campaigns.runner import run_campaign
from repro.cli import main
from repro.platform.runner import run_platform
from repro.streams.runner import run_stream
from repro.workloads.adas import ADAS_TASKS

SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"

#: report key -> (digest(), sha256 of to_json(indent=2) or, for a
#: campaign, of the ``campaign report --json`` output).
PINS = {
    'campaign/default': ('706327b0d35c5f04', '50f7bf28299977577fa23c47bf4f3f48be3171844d0088e10a0640670af188b3'),
    'campaign/importance': ('52acaa7b5c34c92d', 'e51d8225eb5d2d6c3b996ea5247c25dd737110e6c1dfc012af849c732ed7b305'),
    'campaign/partial-stratified': ('3fabf5721086887c', '979d1512c7ff31e5fd6382c620c107459fff8d908f61ed2e8da25c366f3425b6'),
    'campaign/srrs': ('f298830b70ed3faf', '43e3ff7cdc8cbb07e45f1877210985c3a7e17fd80c432237263f28353ed93749'),
    'campaign/stratified': ('71c01913d095e5c2', '10716b53a6bbddc1ce0e0b977b1193b7c61a9a9d6a64e1fbac978d46d7e721d5'),
    # layout changed in 1.21.0: a device stores only its spec, and
    # `device_totals` and each task's `safe_rate` are derived keys
    'platform/examples': ('185442eb910b90fb', '72dc6ab18d7eee4ff7e7043e7fc4914cda4f9ce688639531db13c899b1d741af'),
    'stream/examples': ('cb4b1694fb0d6d1a', '616ff2ee3f1b948148e69945670cb9bade955f8df148d70fb9f9e32add975dd7'),
    'task/camera-perception': ('a519ccd18a95eb4c', '20c6dc55ba812e09ef8b9671fd875223a8f3d19b36c49eb16d0adcf86b64d148'),
    'task/lidar-segmentation': ('620a1e178dab06fc', '2cdc05436006596eef0b267fa6bca07a4529f2beba7784a40aafd61648ab2828'),
    'task/radar-cfar': ('96d0c7f1eb3239dd', '6441b91bfcbdf2ee365d201c2240748673029556f813676fa07c779ddfeb77ee'),
    'task/trajectory-scoring': ('37fc57e3502a1f28', '345899ad261ac16f102dc562cf1a55cac4996263797423e6e2536fa54d9e906a'),
}


#: campaign pin key -> the example spec edits and ``--max-shards``.
CAMPAIGNS = {
    "campaign/srrs": ({}, None),
    "campaign/default": ({"policy": "default"}, None),
    "campaign/stratified": (
        {"policy": "default", "sampling": SamplingSpec(
            method="stratified", transient_ccf=1, permanent_sm=2, seu=1)},
        None),
    "campaign/importance": (
        {"policy": "default", "sampling": SamplingSpec(
            method="importance", transient_ccf=1, permanent_sm=2, seu=1)},
        None),
    # the first one-injection shard samples the CCF stratum alone
    "campaign/partial-stratified": (
        {"policy": "default", "shards": None, "shard_size": 1,
         "sampling": SamplingSpec(method="stratified")},
        1),
}


def _campaign_pin(key, root, capsys):
    edits, max_shards = CAMPAIGNS[key]
    spec = CampaignSpec.from_json((SPECS_DIR / "campaign.json").read_text())
    spec = replace(
        spec, run=replace(spec.run, policy=edits.get("policy", "srrs")),
        **{k: v for k, v in edits.items() if k != "policy"})
    report = run_campaign(spec, store=root, max_shards=max_shards)
    capsys.readouterr()
    assert main(["campaign", "report", "--dir", str(root), "--json"]
                + (["--partial"] if max_shards else [])) == 0
    text = capsys.readouterr().out
    return report.digest(), hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    assert sorted(_keys() + list(CAMPAIGNS)) == sorted(PINS)


@pytest.mark.parametrize("key", sorted(_keys()))
def test_report_json_and_digest_match_the_pin(key):
    assert _pin(_report(key)) == PINS[key]


@pytest.mark.parametrize("key", sorted(CAMPAIGNS))
def test_campaign_report_json_and_digest_match_the_pin(key, tmp_path,
                                                       capsys):
    assert _campaign_pin(key, tmp_path, capsys) == PINS[key]
