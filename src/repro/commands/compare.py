"""``compare``: statistical significance diff of two artifacts.

::

    python -m repro compare old.json new.json           # same-kind artifacts
    python -m repro compare a.json b.json --alpha 0.01
    python -m repro compare a.json b.json --json        # repro-compare/v1

``compare`` accepts two campaign reports, two stream reports or two
BENCH artifacts, runs a two-proportion z-test plus a bootstrap
difference interval on every shared rate (:mod:`repro.stats`), and
exits like ``diff``: 0 = statistically indistinguishable, 1 = at least
one significant difference, 2 = misuse (unreadable file, mismatched
kinds).  Two BENCH artifacts (the committed baseline first) are also
the perf-regression gate: a metric out of its rule's bounds exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from repro.commands.common import add_json_flag, read_json
from repro.errors import ConfigurationError, StatsError

__all__ = ["configure"]


def _load_artifact(path: str) -> Dict[str, object]:
    """Load one artifact JSON file for comparison."""
    data = read_json(path, "artifact")
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{path!r} does not hold a JSON object"
        )
    return data


def _cmd_compare(args: argparse.Namespace) -> int:
    """Compare two artifacts; print the verdict, return the exit code."""
    from repro.stats.compare import compare_artifacts, render_comparison

    try:
        payload = compare_artifacts(
            _load_artifact(args.a),
            _load_artifact(args.b),
            alpha=args.alpha,
            confidence=args.confidence,
            resamples=args.resamples,
            seed=args.seed,
        )
    except (StatsError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_comparison(payload))
    return 1 if payload["significant"] or payload.get("failed") else 0


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``compare`` arguments to its subparser."""
    parser.add_argument("a", metavar="A.json",
                        help="baseline artifact (campaign/stream/BENCH)")
    parser.add_argument("b", metavar="B.json",
                        help="candidate artifact of the same kind")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level of the two-proportion "
                             "tests (default 0.05)")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of the bootstrap "
                             "difference intervals (default 0.95)")
    parser.add_argument("--resamples", type=int, default=1000,
                        help="bootstrap resamples per rate (default 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="bootstrap seed (default 0)")
    add_json_flag(parser, "emit the stable repro-compare/v1 schema")
    parser.set_defaults(handler=_cmd_compare)
