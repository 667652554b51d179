"""``campaign``: sharded resumable fault-injection campaigns.

::

    python -m repro campaign run --spec campaign.json --dir out/c1 --workers 4
    python -m repro campaign resume --dir out/c1 --workers 4
    python -m repro campaign status --dir out/c1
    python -m repro campaign report --dir out/c1 --json

``run`` and ``resume`` load the execution stack
(:mod:`repro.campaigns.runner`); ``status`` and ``report`` read the store
through :mod:`repro.campaigns.fold` alone and execute nothing
(``docs/CAMPAIGNS.md``).
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Callable, Tuple, Union

from repro.commands.common import (
    add_json_flag,
    add_telemetry_flags,
    read_text,
    telemetry_session,
)
from repro.errors import CampaignError, StatsError

if TYPE_CHECKING:
    from repro.api.campaign import CampaignSpec
    from repro.campaigns.fold import CampaignStatus
    from repro.campaigns.store import CampaignStore
    from repro.faults.report import CampaignReport
    from repro.stats.repeater import RepeatResult

__all__ = ["configure"]


def _report_text(report: CampaignReport, *, as_json: bool, title: str) -> str:
    if as_json:
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    from repro.analysis.report import render_table

    table = render_table(
        ["policy", "n", "masked", "detected", "SDC", "coverage", "digest"],
        [[report.policy, report.total, report.masked, report.detected,
          report.sdc, report.detection_coverage, report.digest()]],
        title=title,
    )
    if report.sdc_samples:
        table += "\nSDC examples: " + "; ".join(report.sdc_samples)
    if report.sampling is not None:
        try:
            table += "\nSDC rate: " + report.rate_interval("sdc").describe()
        except StatsError:
            pass
    return table


def _repeat_text(result: RepeatResult, *, as_json: bool, title: str) -> str:
    if as_json:
        return json.dumps(result.to_dict(), sort_keys=True, indent=2)
    from repro.analysis.report import render_table

    estimate = result.estimate
    table = render_table(
        ["metric", "estimate", "CI", "batches", "n", "stop"],
        [[result.metric, f"{estimate.rate:.6f}",
          f"[{estimate.low:.6f}, {estimate.high:.6f}]",
          result.batches, result.total, result.stop_reason]],
        title=title,
    )
    if result.error:
        table += f"\nWARNING: {result.error}"
    return table


def _status_text(status: CampaignStatus, *, as_json: bool) -> str:
    if as_json:
        return json.dumps(status.to_dict(), sort_keys=True, indent=2)
    from repro.analysis.report import render_table

    return render_table(
        ["policy", "shards", "injections", "masked", "detected", "SDC",
         "complete"],
        [[status.policy or "-",
          f"{status.completed_shards}/{status.total_shards}",
          f"{status.completed_injections}/{status.total_injections}",
          status.masked, status.detected, status.sdc, status.complete]],
        title=f"Campaign status — spec {status.spec_hash}",
    )


def _execute(args: argparse.Namespace,
             load: Callable[[], Tuple[CampaignSpec,
                                      Union[CampaignStore, str, None], str]]
             ) -> str:
    """``run``/``resume``: execute the pending shards, render the result.

    ``load`` reads the spec and returns ``(spec, store, title)``; it runs
    after the execution stack is imported, the order
    :mod:`repro.campaigns.runner` documents.  A repeat-until-confidence
    spec renders its stopping decision; a fixed-size run that stopped
    short of the whole campaign renders the store's status.
    """
    from repro.campaigns.runner import _run_spec, campaign_status

    spec, store, title = load()
    with telemetry_session(args) as telemetry:
        result = _run_spec(spec, store=store, workers=args.workers,
                           max_shards=args.max_shards, telemetry=telemetry)
    if spec.repeat is not None:
        return _repeat_text(result, as_json=args.json,
                            title=f"Campaign repeat — {title}")
    # a complete campaign's aggregate covers exactly the spec's population
    # (shards are validated against the plan, so the totals can only match
    # when every shard is in) — checking totals avoids re-reading and
    # re-verifying the whole shard log just to decide completeness
    qualifier = ""
    if result.total < spec.total_injections:
        if store is not None:
            return _status_text(campaign_status(store), as_json=args.json)
        qualifier = " (PARTIAL)"
    return _report_text(result, as_json=args.json,
                        title=f"Campaign report{qualifier} — {title}")


def _cmd_run(args: argparse.Namespace) -> int:
    def load():
        from repro.api.campaign import CampaignSpec

        spec = CampaignSpec.from_json(read_text(args.spec, "spec file"))
        return spec, args.dir, f"{spec.label} ({spec.config_hash})"

    print(_execute(args, load))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    def load():
        from repro.campaigns.store import CampaignStore

        store = CampaignStore(args.dir)
        spec = store.load_spec()
        return spec, store, f"spec {spec.config_hash}"

    print(_execute(args, load))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.campaigns.fold import campaign_status

    print(_status_text(campaign_status(args.dir), as_json=args.json))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Fold the persisted shards without executing anything."""
    from repro.campaigns.fold import (
        campaign_plan,
        fold_report,
        result_records,
        spec_sampling_meta,
        validated_records,
    )
    from repro.campaigns.store import CampaignStore

    store = CampaignStore(args.dir)
    spec = store.load_spec()
    plan = campaign_plan(spec)
    records, complete = result_records(spec, plan,
                                       validated_records(store, plan))
    if not complete and not args.partial:
        raise CampaignError(
            f"campaign incomplete ({len(records)}/{len(plan)} shards "
            f"done); resume it with `python -m repro campaign resume "
            f"--dir {args.dir}` or pass --partial for a partial fold"
        )
    report = fold_report(records.values(),
                         sampling=spec_sampling_meta(spec))
    qualifier = "" if complete else " (PARTIAL)"
    print(_report_text(
        report, as_json=args.json,
        title=f"Campaign report{qualifier} — spec {spec.config_hash}",
    ))
    return 0


def _execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for shards (default 1)")
    parser.add_argument("--max-shards", type=int, default=None,
                        help="run at most N pending shards, then stop "
                             "(checkpointed budget)")
    add_json_flag(parser)
    add_telemetry_flags(parser)


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the ``campaign`` actions to its subparser."""
    actions = parser.add_subparsers(dest="campaign_command", required=True,
                                    metavar="action")
    run = actions.add_parser(
        "run", help="run a CampaignSpec (skips shards already in --dir)"
    )
    run.add_argument("--spec", required=True,
                     help="path to a CampaignSpec JSON file")
    run.add_argument("--dir", default=None,
                     help="campaign store directory (enables "
                          "checkpoint/resume; omit for in-memory)")
    _execution_flags(run)
    run.set_defaults(handler=_cmd_run)

    resume = actions.add_parser(
        "resume", help="continue a persisted campaign from its manifest"
    )
    resume.add_argument("--dir", required=True,
                        help="campaign store directory")
    _execution_flags(resume)
    resume.set_defaults(handler=_cmd_resume)

    status = actions.add_parser(
        "status", help="shard/injection progress of a campaign store"
    )
    status.add_argument("--dir", required=True,
                        help="campaign store directory")
    add_json_flag(status)
    status.set_defaults(handler=_cmd_status)

    report = actions.add_parser(
        "report", help="fold the persisted shards into the aggregate report"
    )
    report.add_argument("--dir", required=True,
                        help="campaign store directory")
    report.add_argument("--partial", action="store_true",
                        help="allow folding an incomplete campaign")
    add_json_flag(report)
    report.set_defaults(handler=_cmd_report)
