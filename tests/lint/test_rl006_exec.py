"""RL006 also guards the execution core's entry point, ``map_tasks``."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintConfig, lint_file, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
UNSCOPED = LintConfig(scopes={})


def _rl006(name: str):
    violations, _ = lint_file(FIXTURES / name, config=UNSCOPED)
    return [v for v in violations if v.rule == "RL006"]


def test_lambda_nested_def_and_self_method_are_flagged():
    flagged = _rl006("rl006_exec_bad.py")
    assert len(flagged) == 3, [v.render() for v in flagged]
    messages = " ".join(v.message for v in flagged)
    assert "lambda" in messages
    assert "'nested'" in messages
    assert "self._work" in messages


def test_module_level_callables_are_clean():
    assert _rl006("rl006_exec_good.py") == []


def test_the_shipped_tree_passes_rl006():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    report = run_lint([src], config=LintConfig.default(),
                      rule_ids=["RL006"])
    assert report.ok, [v.render() for v in report.violations]
