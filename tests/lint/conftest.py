"""One lint of the shipped tree, shared by every test that checks it.

Linting all of ``src/repro`` takes about a second, and five tests assert
that the shipped tree is clean (through the CLI, its JSON schema, the
library entry point and RL006).  They share the single report built
here; the CI ``lint-contract`` job still runs its own full-tree lint.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import engine
from repro.lint.config import load_config

REPO_ROOT = Path(__file__).parents[2]

#: The CLI's default lint target, relative to the repository root.
SHIPPED_TREE = "src/repro"


@pytest.fixture(scope="session")
def shipped_tree_report():
    """``repro lint src/repro`` as the CLI computes it from the repo root:
    every rule, the shipped ``repro-lint.toml``, relative file labels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        config = load_config()
        report = engine.run_lint([SHIPPED_TREE], config=config)
    return config, report


@pytest.fixture
def shared_tree_lint(monkeypatch, shipped_tree_report):
    """Serve the shared report to ``repro lint`` runs of the shipped tree.

    Any other lint (other targets, a rule filter, another config) still
    runs for real.  Returns the list of served requests so a test can
    assert that its CLI call really linted the shipped tree.
    """
    shipped_config, report = shipped_tree_report
    real_run_lint = engine.run_lint
    served = []

    def run_lint(paths, *, config=None, rule_ids=None):
        request = [str(p) for p in paths]
        if (request == [SHIPPED_TREE] and rule_ids is None
                and config == shipped_config):
            served.append(request)
            return report
        return real_run_lint(paths, config=config, rule_ids=rule_ids)

    monkeypatch.setattr(engine, "run_lint", run_lint)
    return served
