"""``platform``: multi-device vehicle platforms with task placement.

::

    python -m repro platform plan --spec platform.json
    python -m repro platform run --spec platform.json --workers 4 --json
    python -m repro platform run --spec platform.json --out report.json
    python -m repro platform report --report report.json
"""

from __future__ import annotations

import argparse
import json
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

if TYPE_CHECKING:
    from repro.api.platform import PlatformSpec
    from repro.platform.report import PlatformReport

__all__ = ["configure"]


def _load_spec(path: str) -> PlatformSpec:
    from repro.api.platform import PlatformSpec

    return PlatformSpec.from_json(read_text(path, "spec file"))


def _print_report(report: PlatformReport, *, as_json: bool) -> int:
    from repro.analysis.platform import platform_summary_rows
    from repro.analysis.report import render_table

    if as_json:
        print(report.to_json(indent=2))
    else:
        print(render_table(
            ["metric", "value"],
            platform_summary_rows(report),
            title=f"Platform report — {report.label} ({report.spec_hash})",
        ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    frames = frames_override(args)
    if frames is not None:
        from dataclasses import replace

        spec = replace(spec, tasks=tuple(
            replace(task, frames=frames) for task in spec.tasks
        ))
    from repro.platform.runner import run_platform

    with telemetry_session(args) as telemetry:
        report = run_platform(spec, workers=args.workers,
                              telemetry=telemetry)
    write_out(args.out, report.to_json(indent=2))
    return _print_report(report, as_json=args.json)


def _cmd_plan(args: argparse.Namespace) -> int:
    """Show the placement decision without executing."""
    spec = _load_spec(args.spec)
    from repro.analysis.report import render_table
    from repro.platform.placement import plan_placement

    plan = plan_placement(spec)
    if args.json:
        print(json.dumps(plan.to_dict(), sort_keys=True, indent=2))
        return 0
    rows = [
        [task, device,
         f"{plan.demands[task].utilisation:.4f}",
         f"{plan.demands[task].service_ms:.4f}",
         f"{plan.demands[task].protocol_ms:.4f}"]
        for task, device in plan.assignments
    ]
    rows += [
        ["(device total)", name, f"{util:.4f}", "-", "-"]
        for name, util in sorted(plan.device_utilisation.items())
    ]
    print(render_table(
        ["task", "device", "utilisation", "service(ms)", "protocol(ms)"],
        rows,
        title=f"Placement plan — {spec.label} [{plan.policy}]",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a previously saved PlatformReport JSON file."""
    from repro.platform.report import PlatformReport

    report = PlatformReport.from_dict(read_json(args.report, "report file"))
    return _print_report(report, as_json=args.json)


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``platform`` actions to its subparser."""
    actions = parser.add_subparsers(dest="platform_command", required=True,
                                    metavar="action")
    run = actions.add_parser("run", help="place and execute a PlatformSpec")
    run.add_argument("--spec", required=True,
                     help="path to a PlatformSpec JSON file")
    add_frames_flag(run, "override every task's frame count")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size, one pool task per device "
                          "(default 1; never changes the report)")
    add_out_flag(run)
    add_json_flag(run, "emit report JSON instead of a table")
    add_telemetry_flags(run)
    run.set_defaults(handler=_cmd_run)

    plan = actions.add_parser(
        "plan", help="show the placement decision without executing"
    )
    plan.add_argument("--spec", required=True,
                      help="path to a PlatformSpec JSON file")
    add_json_flag(plan, "emit plan JSON instead of a table")
    plan.set_defaults(handler=_cmd_plan)

    report = actions.add_parser(
        "report", help="render a previously saved platform report"
    )
    report.add_argument("--report", required=True,
                        help="path to a PlatformReport JSON file")
    add_json_flag(report, "emit report JSON instead of a table")
    report.set_defaults(handler=_cmd_report)
