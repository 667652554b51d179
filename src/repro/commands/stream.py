"""``stream``: continuous frame streams with online deadline analytics.

::

    python -m repro stream run --spec stream.json --json
    python -m repro stream run --task camera-perception --frames 10000
    python -m repro stream run --spec stream.json --out report.json
    python -m repro stream report --report report.json
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.commands.common import (
    add_frames_flag,
    add_json_flag,
    add_out_flag,
    add_telemetry_flags,
    frames_override,
    read_json,
    read_text,
    telemetry_session,
    write_out,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.streams.report import StreamReport

__all__ = ["configure"]


def _print_report(report: StreamReport, *, as_json: bool) -> int:
    from repro.analysis.report import render_table
    from repro.analysis.streams import stream_summary_rows

    if as_json:
        print(report.to_json(indent=2))
    else:
        print(render_table(
            ["metric", "value"],
            stream_summary_rows(report),
            title=f"Stream report — {report.label} ({report.spec_hash})",
        ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if bool(args.spec) == bool(args.task):
        raise ConfigurationError(
            "stream run needs exactly one of --spec FILE or --task NAME"
        )
    # the execution stack before the spec: the import order
    # repro.campaigns.runner documents
    from repro.streams.runner import run_stream
    from repro.api.stream import StreamSpec

    if args.spec:
        spec = StreamSpec.from_json(read_text(args.spec, "spec file"))
    else:
        spec = StreamSpec.for_task(args.task)
    frames = frames_override(args)
    if frames is not None:
        from dataclasses import replace

        spec = replace(spec, frames=frames)
    with telemetry_session(args) as telemetry:
        if args.profile:
            from repro.obs.profiling import profiled

            with profiled(out=args.profile):
                report = run_stream(spec, workers=args.workers,
                                    telemetry=telemetry)
        else:
            report = run_stream(spec, workers=args.workers,
                                telemetry=telemetry)
    write_out(args.out, report.to_json(indent=2))
    return _print_report(report, as_json=args.json)


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a previously saved StreamReport JSON file."""
    from repro.streams.report import StreamReport

    report = StreamReport.from_dict(read_json(args.report, "report file"))
    return _print_report(report, as_json=args.json)


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``stream`` actions to its subparser."""
    actions = parser.add_subparsers(dest="stream_command", required=True,
                                    metavar="action")
    run = actions.add_parser(
        "run", help="execute a StreamSpec (or a built-in ADAS task stream)"
    )
    run.add_argument("--spec", default=None,
                     help="path to a StreamSpec JSON file")
    run.add_argument("--task", default=None,
                     help="built-in ADAS task name (e.g. camera-perception)")
    add_frames_flag(run, "override the spec's frame count")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size for distinct-job simulation "
                          "(default 1; never changes the report)")
    add_out_flag(run)
    run.add_argument("--profile", default=None, metavar="OUT.pstats",
                     help="run under cProfile and dump stats to this file "
                          "(inspect with pstats or snakeviz)")
    add_json_flag(run, "emit report JSON instead of a table")
    add_telemetry_flags(run)
    run.set_defaults(handler=_cmd_run)

    report = actions.add_parser(
        "report", help="render a previously saved stream report"
    )
    report.add_argument("--report", required=True,
                        help="path to a StreamReport JSON file")
    add_json_flag(report, "emit report JSON instead of a table")
    report.set_defaults(handler=_cmd_report)
