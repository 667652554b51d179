"""``obs``: inspect, export and diff telemetry event logs.

Every ``campaign run/resume``, ``stream run`` and ``platform run``
accepts ``--telemetry PATH`` (typed ``repro-telemetry/v1`` JSONL event
log), ``--progress`` (live stderr ticker) and ``--heartbeat S``;
telemetry never changes any report::

    python -m repro campaign run --spec c.json --telemetry t.jsonl --progress
    python -m repro obs validate t.jsonl            # schema check
    python -m repro obs validate t.jsonl --strict   # warnings become errors
    python -m repro obs report t.jsonl --top 5      # span tree + hotspots
    python -m repro obs export t.jsonl --chrome     # Perfetto trace JSON
    python -m repro obs export t.jsonl --folded     # flamegraph stacks
    python -m repro obs export t.jsonl --csv        # heartbeat series
    python -m repro obs diff a.jsonl b.jsonl --json # cross-run span deltas

``obs validate`` exits 1 on schema violations and 2 when the file
cannot be read (``--strict`` promotes tolerated findings — unknown
event types, stale worker seq — to violations); ``obs report`` renders
run summaries, the span tree and self-time hotspots (``--json`` for the
repro-obs-report/v1 schema).  ``export`` writes Chrome/Perfetto trace
JSON, collapsed stacks or heartbeat CSV; ``obs diff`` aligns the span
trees of two runs, tests per-path self-time deltas for significance
(repro-obs-diff/v1) and exits like ``compare``: 0 = indistinguishable,
1 = significant, 2 = misuse.  Every action reads telemetry files only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.commands.common import add_json_flag
from repro.errors import ConfigurationError, ObsError, StatsError

__all__ = ["configure"]


def _validate(args: argparse.Namespace) -> int:
    """``obs validate``: lenient by default, ``--strict`` promotes."""
    from repro.obs.events import TELEMETRY_SCHEMA, classify_events
    from repro.obs.sink import scan_telemetry

    events, tears = scan_telemetry(args.path)
    problems, tolerated = classify_events(events)
    if args.strict:
        problems, tolerated = problems + tolerated, []
    for problem in problems:
        print(f"{args.path}: {problem}", file=sys.stderr)
    for note in tolerated:
        print(f"{args.path}: warning: {note}", file=sys.stderr)
    for tear in tears:
        where = ("end of file" if tear["tear"] == "file"
                 else "end of an interrupted session")
        print(f"{args.path}: note: torn line {tear['line']} "
              f"skipped ({where})", file=sys.stderr)
    if problems:
        return 1
    extra = ""
    if tolerated:
        extra += f", {len(tolerated)} warning(s)"
    if tears:
        extra += f", {len(tears)} torn line(s) skipped"
    print(f"{args.path}: {len(events)} event(s) OK "
          f"({TELEMETRY_SCHEMA}){extra}")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, summarize
    from repro.obs.sink import read_telemetry

    summary = summarize(read_telemetry(args.path))
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(render_report(summary, top=args.top))
    return 0


def _export(args: argparse.Namespace) -> int:
    """``obs export``: one telemetry log to one analysis format."""
    from repro.obs.export import heartbeat_csv, render_chrome_trace, to_folded
    from repro.obs.sink import read_telemetry

    chosen = [name for name, flag in (("--chrome", args.chrome),
                                      ("--folded", args.folded),
                                      ("--csv", args.csv)) if flag]
    if len(chosen) != 1:
        raise ObsError("choose exactly one of --chrome, --folded, --csv")
    events = read_telemetry(args.path)
    if args.chrome:
        text = render_chrome_trace(events) + "\n"
    elif args.folded:
        text = to_folded(events)
    else:
        text = heartbeat_csv(events)
    if args.out:
        from repro.journal import replace_atomic

        # a failed write is no misuse: it exits 1 like every --out
        replace_atomic(args.out, text, error=ConfigurationError)
        print(f"wrote {chosen[0].lstrip('-')} export to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _diff(args: argparse.Namespace) -> int:
    """``obs diff``: exits 0 alike / 1 significant (like ``compare``)."""
    from repro.obs.diff import diff_events, render_diff
    from repro.obs.sink import read_telemetry

    payload = diff_events(
        read_telemetry(args.a), read_telemetry(args.b),
        label_a=args.a, label_b=args.b,
        confidence=args.confidence, min_rel=args.min_rel,
        min_abs_ms=args.min_abs_ms,
    )
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_diff(payload))
    return 1 if payload["significant"] else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run one ``obs`` action; an unreadable input or misuse exits 2."""
    try:
        return args.action(args)
    except (ObsError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", metavar="TELEMETRY.jsonl",
                        help="telemetry file written by --telemetry")


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``obs`` actions to its subparser."""
    parser.set_defaults(handler=_cmd_obs)
    actions = parser.add_subparsers(dest="obs_command", required=True,
                                    metavar="action")

    def action(name: str, fn: Callable[[argparse.Namespace], int],
               help: str) -> argparse.ArgumentParser:
        sub = actions.add_parser(name, help=help)
        sub.set_defaults(action=fn)
        return sub

    report = action("report", _report,
                    "render run summaries, the span tree and hotspots")
    _telemetry_arg(report)
    report.add_argument("--top", type=int, default=10,
                        help="hotspot rows to show (default 10)")
    add_json_flag(report, "emit the stable repro-obs-report/v1 schema")

    validate = action("validate", _validate,
                      "check a telemetry file against the v1 schema")
    _telemetry_arg(validate)
    validate.add_argument("--strict", action="store_true",
                          help="promote tolerated findings (unknown event "
                               "types, stale worker seq) to violations")

    export = action("export", _export,
                    "export a telemetry log for external tools")
    _telemetry_arg(export)
    export.add_argument("--chrome", action="store_true",
                        help="Chrome/Perfetto trace-event JSON")
    export.add_argument("--folded", action="store_true",
                        help="collapsed-stack lines for flamegraph tools")
    export.add_argument("--csv", action="store_true",
                        help="heartbeat metric series as CSV")
    export.add_argument("--out", metavar="FILE",
                        help="write to FILE instead of stdout")

    diff = action("diff", _diff,
                  "compare two telemetry runs (span + counter deltas)")
    diff.add_argument("a", metavar="A.jsonl", help="baseline telemetry file")
    diff.add_argument("b", metavar="B.jsonl", help="candidate telemetry file")
    add_json_flag(diff, "emit the stable repro-obs-diff/v1 schema")
    diff.add_argument("--confidence", type=float, default=0.95,
                      help="interval confidence level (default 0.95)")
    diff.add_argument("--min-rel", type=float, default=0.10,
                      help="relative self-time change floor (default 0.10)")
    diff.add_argument("--min-abs-ms", type=float, default=1.0,
                      help="absolute self-time change floor in ms "
                           "(default 1.0)")
