"""``lint``: the determinism-contract linter (:mod:`repro.lint`).

::

    python -m repro lint                            # lint src/repro
    python -m repro lint --json src/repro           # machine-readable
    python -m repro lint --rule RL002 src/repro     # one rule only
    python -m repro lint --config repro-lint.toml src/repro

``lint`` exits 1 when violations are found (the CI gate) and 2 when the
linter itself is misconfigured.
"""

from __future__ import annotations

import argparse
import json

from repro.commands.common import add_json_flag

__all__ = ["configure"]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism linter; print the report, return the exit code."""
    from repro.lint.config import load_config
    from repro.lint.engine import run_lint

    config = load_config(args.config)
    report = run_lint(args.paths, config=config, rule_ids=args.rule or None)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``lint`` arguments to its subparser."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        metavar="PATH",
                        help="files/directories to lint (default src/repro)")
    parser.add_argument("--rule", action="append", metavar="RLnnn",
                        help="run only this rule (repeatable)")
    parser.add_argument("--config", default=None,
                        help="lint config file (default: repro-lint.toml "
                             "in the working directory, if present)")
    add_json_flag(parser, "emit the stable JSON report schema")
    parser.set_defaults(handler=_cmd_lint)
