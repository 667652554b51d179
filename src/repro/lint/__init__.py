"""``repro.lint`` — AST-based determinism-contract checker.

Every subsystem in this repository promises bit-identical reports and
digests across worker counts, shard boundaries and declaration order.
This package enforces that promise *statically*: a rule engine walks the
source tree and fails on contract violations — module-global randomness,
wall-clock reads, unordered folds in digest paths, mutable specs, raises
outside the :class:`~repro.errors.ReproError` hierarchy, non-picklable
pool callables, salted ``hash()`` and filesystem-order dependence — so a
regression is caught at lint time instead of (maybe) by an equivalence
test sampling a few configurations.

Entry points::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    assert report.ok

or from a shell / CI::

    python -m repro lint [--json] [--rule RLnnn] [paths...]

The rule catalogue, suppression syntax (``# repro-lint: allow[RLnnn]
reason``) and config scoping are documented in ``docs/LINT.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lint.config": (
        "DEFAULT_CONFIG_FILE", "LintConfig", "RuleScope", "load_config",
        "parse_config",
    ),
    "repro.lint.engine": ("expand_targets", "lint_file", "run_lint"),
    "repro.lint.reporting": ("JSON_SCHEMA_VERSION", "LintReport", "Violation"),
    "repro.lint.rules": ("ALL_RULES", "RULE_IDS", "Rule", "rules_by_id"),
    "repro.lint.suppressions": (
        "FileSuppressions", "Suppression", "collect_suppressions",
    ),
})
