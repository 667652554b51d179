"""Suppression parsing, enforcement and hygiene checks."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintConfig, RULE_IDS, collect_suppressions, lint_file

FIXTURES = Path(__file__).parent / "fixtures"
UNSCOPED = LintConfig(scopes={})


class TestSuppressionsSilence:
    def test_justified_allows_silence_violations(self):
        violations, suppressed = lint_file(FIXTURES / "supp_ok.py",
                                           config=UNSCOPED)
        assert violations == []
        assert suppressed == 2

    def test_standalone_comment_covers_next_code_line(self):
        source = FIXTURES.joinpath("supp_ok.py").read_text()
        supps = collect_suppressions("supp_ok.py", source, RULE_IDS)
        lines = {s.line for s in supps.suppressions}
        # the standalone comment sits on line 7; the code is on line 8
        assert 8 in lines


class TestSuppressionHygiene:
    def test_missing_reason_is_rejected_and_violation_kept(self):
        violations, suppressed = lint_file(
            FIXTURES / "supp_missing_reason.py", config=UNSCOPED
        )
        assert suppressed == 0
        rules = sorted(v.rule for v in violations)
        # the rejected allow is RL000 and the RL002 it tried to hide stays
        assert rules == ["RL000", "RL002"]
        rl000 = [v for v in violations if v.rule == "RL000"][0]
        assert "without a reason" in rl000.message

    def test_unknown_and_malformed_rule_ids_are_rejected(self):
        violations, _ = lint_file(FIXTURES / "supp_bad_rule.py",
                                  config=UNSCOPED)
        messages = "\n".join(v.message for v in violations)
        assert "unknown rule RL999" in messages
        assert "malformed rule ID" in messages
        assert "malformed repro-lint comment" in messages

    def test_unused_suppression_is_flagged(self):
        violations, _ = lint_file(FIXTURES / "supp_unused.py",
                                  config=UNSCOPED)
        assert len(violations) == 1
        assert violations[0].rule == "RL000"
        assert "unused suppression" in violations[0].message

    def test_unused_check_skips_rules_that_did_not_run(self):
        # restricting the run to RL002 must not call the RL007 allow unused
        violations, _ = lint_file(FIXTURES / "supp_unused.py",
                                  config=UNSCOPED, rule_ids=["RL002"])
        assert violations == []

    def test_marker_inside_string_literal_is_ignored(self, tmp_path):
        target = tmp_path / "strings.py"
        target.write_text(
            'TEXT = "# repro-lint: allow[RL002] not a real comment"\n'
        )
        violations, _ = lint_file(target, config=UNSCOPED)
        assert violations == []
