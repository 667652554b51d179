"""Fixture-driven tests: one positive and one negative snippet per rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

# every rule runs everywhere for fixture tests (no path scoping)
UNSCOPED = LintConfig(scopes={})

EXPECTED_BAD = {
    "RL001": ("rl001_bad.py", 3),
    "RL002": ("rl002_bad.py", 5),
    "RL003": ("rl003_bad.py", 4),
    "RL004": ("rl004_bad.py", 4),
    "RL005": ("rl005_bad.py", 2),
    "RL006": ("rl006_bad.py", 3),
    "RL007": ("rl007_bad.py", 2),
    "RL008": ("rl008_bad.py", 4),
}


class TestPositiveFixtures:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_bad_fixture_is_flagged(self, rule_id):
        name, count = EXPECTED_BAD[rule_id]
        violations, _ = lint_file(FIXTURES / name, config=UNSCOPED)
        flagged = [v for v in violations if v.rule == rule_id]
        assert len(flagged) == count, [v.render() for v in violations]

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_bad_fixture_fails_via_cli_report(self, rule_id):
        name, _ = EXPECTED_BAD[rule_id]
        report = run_lint([FIXTURES / name], config=UNSCOPED)
        assert not report.ok

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_violations_carry_file_line_anchor(self, rule_id):
        name, _ = EXPECTED_BAD[rule_id]
        violations, _ = lint_file(FIXTURES / name, config=UNSCOPED)
        for v in violations:
            assert v.file.endswith(name)
            assert v.line >= 1
            rendered = v.render()
            assert rendered.startswith(f"{v.file}:{v.line}:")
            assert v.rule in rendered


class TestNegativeFixtures:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_good_fixture_is_clean(self, rule_id):
        name = EXPECTED_BAD[rule_id][0].replace("_bad", "_good")
        violations, _ = lint_file(FIXTURES / name, config=UNSCOPED)
        flagged = [v for v in violations if v.rule == rule_id]
        assert flagged == [], [v.render() for v in flagged]


class TestRuleFilter:
    def test_single_rule_sees_only_its_violations(self):
        report = run_lint([FIXTURES / "rl001_bad.py",
                           FIXTURES / "rl002_bad.py"],
                          config=UNSCOPED, rule_ids=["RL002"])
        assert report.violations
        assert {v.rule for v in report.violations} == {"RL002"}

    def test_scoping_excludes_out_of_scope_files(self):
        # default scoping: RL003 only fires in digest modules, and the
        # fixture directory is not one
        report = run_lint([FIXTURES / "rl003_bad.py"],
                          config=LintConfig.default())
        assert [v for v in report.violations if v.rule == "RL003"] == []


class TestEngineRobustness:
    def test_syntax_error_becomes_rl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations, _ = lint_file(bad, config=UNSCOPED)
        assert len(violations) == 1
        assert violations[0].rule == "RL000"
        assert "syntax error" in violations[0].message

    def test_report_is_sorted_and_deduplicated(self):
        report = run_lint([FIXTURES / "rl002_bad.py",
                           FIXTURES / "rl001_bad.py"], config=UNSCOPED)
        keys = [v.sort_key() for v in report.violations]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
