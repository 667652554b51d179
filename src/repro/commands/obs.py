"""``obs``: inspect, archive, export and diff telemetry event logs.

Every ``campaign run/resume``, ``stream run`` and ``platform run``
accepts ``--telemetry PATH`` (typed ``repro-telemetry/v1`` JSONL event
log), ``--progress`` (live stderr ticker) and ``--heartbeat S``;
telemetry never changes any report::

    python -m repro campaign run --spec c.json --telemetry t.jsonl --progress
    python -m repro obs validate t.jsonl            # schema check
    python -m repro obs validate t.jsonl --strict   # warnings become errors
    python -m repro obs report t.jsonl --top 5      # span tree + hotspots
    python -m repro obs archive t.jsonl --tag base  # into .repro-obs/
    python -m repro obs list                        # archived runs
    python -m repro obs gc --keep 3                 # prune per (kinds, spec)
    python -m repro obs export t.jsonl --chrome     # Perfetto trace JSON
    python -m repro obs export RUNID --folded       # flamegraph stacks
    python -m repro obs export RUNID --csv          # heartbeat series
    python -m repro obs diff BASE CAND --json       # cross-run span deltas

``obs validate`` exits 1 on schema violations and 2 when the file
cannot be read (``--strict`` promotes tolerated findings — unknown
event types, stale worker seq — to violations); ``obs report`` renders
run summaries, the span tree and self-time hotspots (``--json`` for the
repro-obs-report/v1 schema).  ``archive``/``list``/``gc`` manage the
``.repro-obs`` store (run ids are content digests; every command
taking TELEMETRY also accepts an archived tag or run-id prefix).
``export`` writes Chrome/Perfetto trace JSON, collapsed stacks or
heartbeat CSV; ``obs diff`` aligns the span trees of two runs, tests
per-path self-time deltas for significance (repro-obs-diff/v1) and exits
like ``compare``: 0 = indistinguishable, 1 = significant, 2 = misuse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.commands.common import add_json_flag
from repro.errors import ConfigurationError, ObsError, StatsError

__all__ = ["configure"]


def _events(ref: str, obs_dir: str) -> Tuple[List[Dict[str, Any]], str]:
    """Load telemetry events from a file path or an archived run ref.

    ``ref`` naming an existing file wins; anything else is resolved as a
    (prefix of a) run id in the ``obs_dir`` archive.  Returns the events
    plus a display label (the path, or the full resolved run id).

    Raises:
        ObsError: unreadable/corrupt file, or an unknown/ambiguous id.
    """
    from repro.obs.sink import read_telemetry
    from repro.obs.store import ObsStore

    if Path(ref).is_file():
        return read_telemetry(ref), ref
    store = ObsStore(obs_dir)
    entry = store.resolve(ref)
    return store.load_events(entry["run_id"]), entry["run_id"]


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

    events, _ = _events(args.path, args.dir)
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(render_report(summary, top=args.top))
    return 0


def _archive(args: argparse.Namespace) -> int:
    from repro.obs.store import ObsStore

    entry = ObsStore(args.dir).archive(args.path, tag=args.tag)
    kinds = ",".join(entry["kinds"]) or "-"
    print(f"archived {entry['run_id']} ({entry['events']} event(s), "
          f"{entry['sessions']} session(s), kinds: {kinds})")
    return 0


def _list(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.obs.store import ObsStore

    entries = ObsStore(args.dir).entries()
    if args.json:
        print(json.dumps(entries, sort_keys=True, indent=2))
        return 0
    if not entries:
        print(f"no archived runs in {args.dir}")
        return 0
    rows = [
        [e["run_id"], e["tag"] or "-", ",".join(e["kinds"]) or "-",
         str(e["sessions"]), str(e["events"]), str(e["spans"]),
         ",".join(h[:8] for h in e["spec_hashes"]) or "-",
         e["source"]]
        for e in entries
    ]
    print(render_table(
        ["run id", "tag", "kinds", "sessions", "events", "spans",
         "spec", "source"],
        rows, title=f"telemetry archive — {args.dir}"))
    return 0


def _gc(args: argparse.Namespace) -> int:
    from repro.obs.store import ObsStore

    removed = ObsStore(args.dir).gc(keep=args.keep)
    for entry in removed:
        print(f"removed {entry['run_id']} ({entry['source']})")
    print(f"{len(removed)} run(s) removed, keep={args.keep} "
          "per (kinds, spec) group")
    return 0


def _export(args: argparse.Namespace) -> int:
    """``obs export``: one telemetry log to one analysis format."""
    from repro.obs.export import heartbeat_csv, render_chrome_trace, to_folded

    chosen = [name for name, flag in (("--chrome", args.chrome),
                                      ("--folded", args.folded),
                                      ("--csv", args.csv)) if flag]
    if len(chosen) != 1:
        raise ObsError("choose exactly one of --chrome, --folded, --csv")
    events, _ = _events(args.path, args.dir)
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

    events_a, label_a = _events(args.a, args.dir)
    events_b, label_b = _events(args.b, args.dir)
    payload = diff_events(
        events_a, events_b, label_a=label_a, label_b=label_b,
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
    from repro.obs.store import DEFAULT_OBS_DIR

    args.dir = getattr(args, "dir", None) or DEFAULT_OBS_DIR
    try:
        return args.action(args)
    except (ObsError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", metavar="TELEMETRY",
                        help="telemetry file or archived tag/run-id prefix")


def _log_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", metavar="TELEMETRY.jsonl",
                        help="telemetry file written by --telemetry")


def _obs_dir(parser: argparse.ArgumentParser) -> None:
    # the default is DEFAULT_OBS_DIR, spelled out so building the parser
    # imports no subsystem
    parser.add_argument("--dir", default=None, metavar="DIR",
                        help="telemetry archive directory "
                             "(default .repro-obs)")


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
    _obs_dir(report)

    validate = action("validate", _validate,
                      "check a telemetry file against the v1 schema")
    _log_arg(validate)
    validate.add_argument("--strict", action="store_true",
                          help="promote tolerated findings (unknown event "
                               "types, stale worker seq) to violations")

    archive = action("archive", _archive,
                     "copy a telemetry log into the .repro-obs archive")
    _log_arg(archive)
    archive.add_argument("--tag", default="",
                         help="free-form label stored with the run")
    _obs_dir(archive)

    listing = action("list", _list, "list archived telemetry runs")
    add_json_flag(listing, "emit repro-obs-store/v1 manifest entries")
    _obs_dir(listing)

    gc = action("gc", _gc,
                "prune the archive, keeping the newest runs per group")
    gc.add_argument("--keep", type=int, default=5, metavar="N",
                    help="runs to keep per (kinds, spec) group (default 5)")
    _obs_dir(gc)

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
    _obs_dir(export)

    diff = action("diff", _diff,
                  "compare two telemetry runs (span + counter deltas)")
    diff.add_argument("a", metavar="A",
                      help="baseline: telemetry file or archived tag/run id")
    diff.add_argument("b", metavar="B",
                      help="candidate: telemetry file or archived tag/run id")
    add_json_flag(diff, "emit the stable repro-obs-diff/v1 schema")
    diff.add_argument("--confidence", type=float, default=0.95,
                      help="interval confidence level (default 0.95)")
    diff.add_argument("--min-rel", type=float, default=0.10,
                      help="relative self-time change floor (default 0.10)")
    diff.add_argument("--min-abs-ms", type=float, default=1.0,
                      help="absolute self-time change floor in ms "
                           "(default 1.0)")
    _obs_dir(diff)
