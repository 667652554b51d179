"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

#: ``python -m repro fig4`` output, pinned byte for byte.
FIG4_TEXT = """\
Figure 4 — Redundant kernel cycles (normalized to default)
benchmark  default(cy)  HALF   SRRS
---------  -----------  -----  -----
backprop   9000.000     1.428  1.000
bfs        20640.000    2.000  1.000
dwt2d      120000.000   1.025  1.000
gaussian   11040.000    1.000  1.000
hotspot    144000.000   1.021  1.000
hotspot3D  204800.000   1.015  1.000
leukocyte  632000.000   1.005  1.000
lud        106600.000   1.126  1.107
myocyte    253000.000   1.000  1.976
nn         1000.000     1.000  1.000
nw         60000.000    1.050  1.200
"""

#: ``python -m repro sweeps`` output, pinned byte for byte.
SWEEPS_TEXT = """\
Ablation — dispatch-latency sweep (hotspot)
dispatch latency (cy)  HALF   SRRS
---------------------  -----  -----
500.000                1.003  1.000
1500.000               1.010  1.000
3000.000               1.021  1.000
6000.000               1.042  1.000
12000.000              1.083  1.000

Ablation — SM-count sweep (hotspot)
SMs  HALF   SRRS
---  -----  -----
2    1.007  1.000
4    1.014  1.000
6    1.021  1.000
8    1.028  1.111
12   1.042  1.000
16   1.112  1.271
"""


class TestCLI:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "B(D) + B(D)" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "friendly" in out and "heavy" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert capsys.readouterr().out == FIG4_TEXT

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "streamcluster" in out

    def test_coverage_with_benchmark_option(self, capsys):
        assert main(["coverage", "--benchmark", "nn"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out.lower()
        assert "srrs" in out

    def test_policyfit(self, capsys):
        assert main(["policyfit"]) == 0
        assert "best" in capsys.readouterr().out

    def test_sweeps(self, capsys):
        assert main(["sweeps"]) == 0
        assert capsys.readouterr().out == SWEEPS_TEXT

    def test_sms_option(self, capsys):
        assert main(["fig3", "--sms", "4"]) == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2"])


class TestCampaignCLI:
    """The campaign run/resume/status/report front door."""

    @pytest.fixture
    def spec_file(self, tmp_path):
        from repro.api import (
            CampaignSpec,
            FaultPlanSpec,
            RunSpec,
            WorkloadSpec,
        )

        spec = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="srrs"),
            faults=FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20,
                                 seed=7),
            shards=5,
        )
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json(indent=2))
        return path

    def test_run_in_memory(self, capsys, spec_file):
        assert main(["campaign", "run", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "Campaign report" in out
        assert "srrs" in out

    def test_run_resume_status_report_cycle(self, capsys, tmp_path,
                                            spec_file):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--spec", str(spec_file),
                     "--dir", store, "--max-shards", "2"]) == 0
        assert "Campaign status" in capsys.readouterr().out

        assert main(["campaign", "status", "--dir", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed_shards"] == 2
        assert status["complete"] is False

        # report refuses a partial campaign without --partial
        assert main(["campaign", "report", "--dir", store]) == 1
        assert "incomplete" in capsys.readouterr().err
        assert main(["campaign", "report", "--dir", store,
                     "--partial"]) == 0
        assert "PARTIAL" in capsys.readouterr().out

        assert main(["campaign", "resume", "--dir", store,
                     "--workers", "2"]) == 0
        assert "Campaign report" in capsys.readouterr().out

        assert main(["campaign", "report", "--dir", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 100
        assert report["detected"] + report["masked"] + report["sdc"] == 100

    def test_status_of_missing_store_fails_cleanly(self, capsys, tmp_path):
        assert main(["campaign", "status", "--dir",
                     str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_requires_spec(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run"])

    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            main(["campaign"])
