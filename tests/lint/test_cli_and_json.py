"""The ``repro lint`` CLI: exit codes, JSON schema stability, self-check."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import JSON_SCHEMA_VERSION, LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    """The CLI's default target and config discovery assume the repo root."""
    monkeypatch.chdir(REPO_ROOT)


class TestSelfCheck:
    # the full-tree lint is shared (tests/lint/conftest.py): the CLI runs
    # for real around it, and `served` proves which target it linted
    def test_src_repro_is_clean(self, capsys, shared_tree_lint):
        # the determinism contract holds on the tree itself — the CI gate
        assert main(["lint", "src/repro"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert shared_tree_lint == [["src/repro"]]

    def test_default_target_is_src_repro(self, capsys, shared_tree_lint):
        assert main(["lint"]) == 0
        assert "file(s): OK" in capsys.readouterr().out
        assert shared_tree_lint == [["src/repro"]]

    def test_every_surviving_suppression_has_a_reason(self, shipped_tree_report):
        # guaranteed by construction (reason-less allows are RL000), but
        # assert it end-to-end on the real tree; the shipped config is the
        # built-in default (test_lint_config pins that)
        config, report = shipped_tree_report
        assert config == LintConfig.default()
        assert report.ok


class TestExitCodes:
    def test_violations_exit_1(self, capsys):
        code = main(["lint", str(FIXTURES / "rl002_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL002" in out

    def test_unknown_rule_exits_2(self, capsys):
        code = main(["lint", "--rule", "RL999", "src/repro"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_target_exits_2(self, capsys):
        code = main(["lint", "does/not/exist.py"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_text_output_is_file_line_anchored(self, capsys):
        main(["lint", str(FIXTURES / "rl007_bad.py")])
        out = capsys.readouterr().out
        assert "rl007_bad.py:3:" in out
        assert "RL007" in out


class TestJsonSchema:
    def test_schema_keys_are_stable(self, capsys):
        code = main(["lint", "--json", str(FIXTURES / "rl001_bad.py")])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert sorted(data) == ["checked_files", "suppressed", "version",
                                "violation_count", "violations"]
        assert data["version"] == JSON_SCHEMA_VERSION
        assert data["checked_files"] == 1
        assert data["violation_count"] == len(data["violations"])
        for violation in data["violations"]:
            assert sorted(violation) == ["col", "file", "line", "message",
                                         "rule"]

    def test_json_is_deterministic_across_runs(self, capsys):
        main(["lint", "--json", str(FIXTURES / "rl002_bad.py")])
        first = capsys.readouterr().out
        main(["lint", "--json", str(FIXTURES / "rl002_bad.py")])
        second = capsys.readouterr().out
        assert first == second

    def test_clean_tree_json_reports_zero_violations(self, capsys,
                                                     shared_tree_lint):
        assert main(["lint", "--json", "src/repro"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violations"] == []
        assert data["violation_count"] == 0
        assert shared_tree_lint == [["src/repro"]]


class TestRuleOption:
    def test_rule_filter_restricts_output(self, capsys):
        code = main(["lint", "--rule", "RL001",
                     str(FIXTURES / "rl001_bad.py"),
                     str(FIXTURES / "rl002_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "RL002" not in out

    def test_rule_option_is_repeatable(self, capsys):
        code = main(["lint", "--rule", "RL001", "--rule", "RL002",
                     str(FIXTURES / "rl001_bad.py"),
                     str(FIXTURES / "rl002_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "RL002" in out


class TestConfigOption:
    def test_explicit_config_scopes_rules(self, capsys, tmp_path):
        config = tmp_path / "lint.toml"
        config.write_text('[rule.RL002]\nexclude = ["*rl002_bad.py"]\n')
        code = main(["lint", "--config", str(config),
                     str(FIXTURES / "rl002_bad.py")])
        assert code == 0

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "lint.toml"
        config.write_text("[something.else]\n")
        code = main(["lint", "--config", str(config), "src/repro"])
        assert code == 2
        assert "unknown section" in capsys.readouterr().err


class TestAcceptanceDemo:
    def test_wall_clock_in_platform_report_fails_the_gate(self, tmp_path):
        # the ISSUE's acceptance demo: a time.time() smuggled into
        # platform/report.py must fail with an anchored RL002 message
        target = tmp_path / "src" / "repro" / "platform"
        target.mkdir(parents=True)
        original = (REPO_ROOT / "src/repro/platform/report.py").read_text()
        (target / "report.py").write_text(
            "import time\n" + original + "\n_SMUGGLED = time.time()\n"
        )
        report = run_lint([target / "report.py"],
                          config=LintConfig.default())
        rl002 = [v for v in report.violations if v.rule == "RL002"]
        assert rl002, [v.render() for v in report.violations]
        anchor = f"{os.sep}report.py:"
        assert anchor.replace(os.sep, "/") in rl002[0].render().replace(
            os.sep, "/"
        )

    def test_smuggled_wall_clock_also_fails_with_shipped_config(self, tmp_path):
        # the same demo through the shipped repro-lint.toml: quarantining
        # repro.obs must not have opened a hole anywhere else
        target = tmp_path / "src" / "repro" / "platform"
        target.mkdir(parents=True)
        original = (REPO_ROOT / "src/repro/platform/report.py").read_text()
        (target / "report.py").write_text(
            "import time\n" + original + "\n_SMUGGLED = time.time()\n"
        )
        code = main(["lint", "--config",
                     str(REPO_ROOT / "repro-lint.toml"),
                     str(target / "report.py")])
        assert code == 1

    def test_wall_clock_inside_obs_quarantine_passes(self, tmp_path):
        # the telemetry plane is the one sanctioned wall-clock user:
        # identical code passes under src/repro/obs/ and fails anywhere
        # else in the tree
        source = (
            '"""Heartbeat pacing."""\n'
            "import time\n\n\n"
            "def now_ms():\n"
            '    """Wall-clock milliseconds for heartbeat pacing."""\n'
            "    return time.monotonic() * 1000.0\n"
        )
        quarantined = tmp_path / "src" / "repro" / "obs"
        quarantined.mkdir(parents=True)
        (quarantined / "session.py").write_text(source)
        report = run_lint([quarantined / "session.py"],
                          config=LintConfig.default())
        assert not report.violations, [
            v.render() for v in report.violations
        ]

        elsewhere = tmp_path / "src" / "repro" / "streams"
        elsewhere.mkdir(parents=True)
        (elsewhere / "pacing.py").write_text(source)
        report = run_lint([elsewhere / "pacing.py"],
                          config=LintConfig.default())
        rl002 = [v for v in report.violations if v.rule == "RL002"]
        assert rl002, [v.render() for v in report.violations]
