"""Scenario registry coverage and the run/batch/scenarios CLI."""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec, WorkloadSpec, build_scenario, scenario_names
from repro.api.scenarios import get_scenario, register_scenario
from repro.api.spec import FaultPlanSpec
from repro.cli import main
from repro.errors import ConfigurationError
from repro.gpu.scheduler.registry import PAPER_POLICIES
from repro.workloads.rodinia import FIG4_BENCHMARKS, FIG5_BENCHMARKS


class TestRegistry:
    def test_every_figure_runner_is_registered(self):
        names = scenario_names()
        for expected in ("fig3", "fig4", "fig5", "coverage", "policyfit",
                         "sweep-dispatch", "sweep-sms", "benchmark",
                         "quickstart"):
            assert expected in names

    def test_fig4_expansion(self):
        specs = build_scenario("fig4")
        assert len(specs) == len(FIG4_BENCHMARKS) * len(PAPER_POLICIES)
        assert all(isinstance(s, RunSpec) for s in specs)
        assert all(s.effective_copies == 2 for s in specs)

    def test_fig5_expansion(self):
        specs = build_scenario("fig5")
        assert len(specs) == len(FIG5_BENCHMARKS)
        assert all(s.cots is not None and not s.simulate for s in specs)

    def test_coverage_carries_fault_plan(self):
        specs = build_scenario("coverage", benchmark="nn",
                               config=FaultPlanSpec(transient_ccf=1,
                                                    permanent_sm=1, seu=1))
        assert len(specs) == len(PAPER_POLICIES)
        assert all(s.faults.transient_ccf == 1 for s in specs)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            build_scenario("fig9000")

    def test_gpu_and_sms_together_rejected(self):
        from repro.gpu.config import GPUConfig

        with pytest.raises(ConfigurationError, match="not both"):
            build_scenario("fig4", gpu=GPUConfig.gpgpusim_like(), sms=12)

    def test_normalized_busy_cycles_needs_a_default_run(self):
        from repro.api import Engine, normalized_busy_cycles

        artifacts = Engine().run_many(
            build_scenario("fig4", benchmarks=("nn",),
                           policies=("half", "srrs")))
        with pytest.raises(ConfigurationError, match="'nn' has no default"):
            normalized_busy_cycles(artifacts)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario("fig4", "again")(lambda: [])

    def test_registry_is_extensible(self):
        name = "test-extension-scenario"

        @register_scenario(name, "one nn run (test only)")
        def _ext(policy: str = "half"):
            return [RunSpec(workload=WorkloadSpec(benchmark="nn"),
                            policy=policy)]

        try:
            assert get_scenario(name).description.startswith("one nn run")
            assert build_scenario(name, policy="srrs")[0].policy == "srrs"
        finally:
            from repro.api import scenarios

            scenarios._REGISTRY.pop(name, None)


class TestCLI:
    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "sweep-sms" in out

    def test_run_scenario_table(self, capsys):
        assert main(["run", "--scenario", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "srrs" in out and "config" in out

    def test_run_scenario_json(self, capsys):
        assert main(["run", "--scenario", "fig3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert payload[0]["classification"][0]["category"]

    def test_run_spec_file(self, tmp_path, capsys):
        spec = RunSpec(workload=WorkloadSpec(benchmark="nn"), tag="cli-nn")
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path)]) == 0
        assert "cli-nn" in capsys.readouterr().out

    def test_run_spec_file_json_round_trips(self, tmp_path, capsys):
        from repro.api import RunArtifact

        spec = RunSpec(workload=WorkloadSpec(benchmark="nn"))
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path), "--json"]) == 0
        artifact = RunArtifact.from_json(capsys.readouterr().out)
        assert artifact.spec == spec

    def test_batch_multiple_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(RunSpec(workload=WorkloadSpec(benchmark="nn"),
                             tag="batch-a").to_json())
        # a file may hold a list of specs
        b.write_text(json.dumps([
            RunSpec(workload=WorkloadSpec(benchmark="gaussian"),
                    policy=p, tag=f"batch-{p}").to_dict()
            for p in ("half", "srrs")
        ]))
        assert main(["batch", str(a), str(b), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch-a" in out and "batch-half" in out and "batch-srrs" in out

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["run"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_run_missing_spec_file(self, capsys):
        assert main(["run", "--spec", "/nonexistent/spec.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_run_invalid_spec_payload(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": {"benchmark": "nn"},
                                    "warp_drive": 9}))
        assert main(["run", "--spec", str(path)]) == 1
        assert "unknown field" in capsys.readouterr().err

    def test_spec_file_with_scenario_params_rejected(self, tmp_path, capsys):
        # --policy etc. only parameterize scenarios; a spec file is complete
        path = tmp_path / "spec.json"
        path.write_text(RunSpec(workload=WorkloadSpec(benchmark="nn")).to_json())
        assert main(["run", "--spec", str(path), "--policy", "half"]) == 1
        assert "only applies to --scenario" in capsys.readouterr().err

    def test_unaccepted_scenario_param_rejected_not_ignored(self, capsys):
        # sweep-sms has no `sms` parameter; dropping --sms silently would
        # run a different configuration than requested
        assert main(["run", "--scenario", "sweep-sms", "--sms", "8"]) == 1
        err = capsys.readouterr().err
        assert "does not accept --sms" in err
        assert "sm_counts" in err

    def test_policyfit_classifies_each_kernel_once(self):
        specs = build_scenario("policyfit")
        by_tag = {}
        for spec in specs:
            by_tag.setdefault(spec.tag, []).append(spec.classify)
        assert all(flags.count(True) == 1 for flags in by_tag.values())

    def test_legacy_figure_commands_still_work(self, capsys):
        assert main(["fig4", "--sms", "4"]) == 0
        assert "backprop" in capsys.readouterr().out
