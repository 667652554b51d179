"""Command-line interface: regenerate any paper artifact from a shell.

Figure commands (legacy front door, kept stable)::

    python -m repro fig1            # ASIL decomposition examples
    python -m repro fig3            # kernel categories
    python -m repro fig4            # scheduler policy comparison
    python -m repro fig5            # COTS end-to-end comparison
    python -m repro coverage        # fault-injection coverage by policy
    python -m repro policyfit       # Section IV-D policy-fit matrix
    python -m repro sweeps          # dispatch-latency / SM-count ablations
    python -m repro all             # everything above

Declarative front door (:mod:`repro.api`)::

    python -m repro scenarios                       # list the registry
    python -m repro run --spec spec.json            # one RunSpec file
    python -m repro run --scenario fig4 --json      # a named scenario
    python -m repro batch a.json b.json --workers 4 # parallel batch

``run``/``batch`` accept ``--json`` to emit the full artifact(s) as JSON;
spec files may hold a single RunSpec object or a list of them.

Sharded resumable fault-injection campaigns (:mod:`repro.campaigns`)::

    python -m repro campaign run --spec campaign.json --dir out/c1 --workers 4
    python -m repro campaign resume --dir out/c1 --workers 4
    python -m repro campaign status --dir out/c1
    python -m repro campaign report --dir out/c1 --json

Continuous frame streams (:mod:`repro.streams`)::

    python -m repro stream run --spec stream.json --json
    python -m repro stream run --task camera-perception --frames 10000
    python -m repro stream run --spec stream.json --out report.json
    python -m repro stream report --report report.json

Multi-device vehicle platforms (:mod:`repro.platform`)::

    python -m repro platform plan --spec platform.json
    python -m repro platform run --spec platform.json --workers 4 --json
    python -m repro platform run --spec platform.json --out report.json
    python -m repro platform report --report report.json

Determinism-contract linter (:mod:`repro.lint`)::

    python -m repro lint                            # lint src/repro
    python -m repro lint --json src/repro           # machine-readable
    python -m repro lint --rule RL002 src/repro     # one rule only
    python -m repro lint --config repro-lint.toml src/repro

``lint`` exits 1 when violations are found (the CI gate) and 2 when the
linter itself is misconfigured.

Observability (:mod:`repro.obs`) — every ``campaign run/resume``,
``stream run`` and ``platform run`` accepts ``--telemetry PATH`` (typed
``repro-telemetry/v1`` JSONL event log), ``--progress`` (live stderr
ticker) and ``--heartbeat S``; telemetry never changes any report::

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
heartbeat CSV;
``obs diff`` aligns the span trees of two runs, tests per-path
self-time deltas for significance (repro-obs-diff/v1) and exits like
``compare``: 0 = indistinguishable, 1 = significant, 2 = misuse.

Statistical significance diff (:mod:`repro.stats`)::

    python -m repro compare old.json new.json           # same-kind artifacts
    python -m repro compare a.json b.json --alpha 0.01
    python -m repro compare a.json b.json --json        # repro-compare/v1

``compare`` accepts two campaign reports, two stream reports or two
BENCH artifacts, runs a two-proportion z-test plus a bootstrap
difference interval on every shared rate, and exits like ``diff``:
0 = statistically indistinguishable, 1 = at least one significant
difference, 2 = misuse (unreadable file, mismatched kinds).

Options: ``--sms N`` changes the GPU size for the simulated artifacts,
``--benchmark NAME`` selects the workload for ``coverage``;
``python -m repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    CampaignError,
    ConfigurationError,
    LintError,
    ObsError,
    ReproError,
    StatsError,
)

# each command imports the modules it runs inside its handler, so a
# command pays only for its own imports (docs/PERFORMANCE.md, "CLI
# start-up"); these names are for annotations only
if TYPE_CHECKING:
    from repro.api.artifact import RunArtifact
    from repro.api.campaign import CampaignSpec
    from repro.api.platform import PlatformSpec
    from repro.api.spec import RunSpec
    from repro.faults.campaign import CampaignReport
    from repro.gpu.config import GPUConfig
    from repro.obs.session import Telemetry
    from repro.platform.report import PlatformReport
    from repro.stats.repeater import RepeatResult
    from repro.streams.report import StreamReport

__all__ = ["main"]


def _cmd_fig1(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.iso26262.decomposition import FIGURE1_EXAMPLES

    return render_table(
        ["example", "decomposition"],
        [[name, rule.describe()] for name, rule in FIGURE1_EXAMPLES],
        title="Figure 1 — ASIL decomposition examples",
    )


def _cmd_fig3(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import fig3_kernel_categories
    from repro.analysis.report import render_table

    rows = fig3_kernel_categories(_gpu(args))
    return render_table(
        ["kernel", "category", "isolated(cy)", "overlap", "policy"],
        [[r.kernel, r.category, r.isolated_cycles, r.overlap_fraction,
          r.recommended_policy] for r in rows],
        title="Figure 3 — Kernel categories",
    )


def _cmd_fig4(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import fig4_scheduler_comparison
    from repro.analysis.report import render_table

    rows = fig4_scheduler_comparison(_gpu(args))
    return render_table(
        ["benchmark", "default(cy)", "HALF", "SRRS"],
        [[r.benchmark, r.default_cycles, r.half_ratio, r.srrs_ratio]
         for r in rows],
        title="Figure 4 — Redundant kernel cycles (normalized to default)",
    )


def _cmd_fig5(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import fig5_cots_comparison
    from repro.analysis.report import render_table

    rows = fig5_cots_comparison()
    return render_table(
        ["benchmark", "baseline(ms)", "redundant(ms)", "ratio"],
        [[r.benchmark, r.baseline_ms, r.redundant_ms, r.ratio] for r in rows],
        title="Figure 5 — COTS end-to-end execution time",
    )


def _cmd_coverage(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import fault_coverage_by_policy
    from repro.analysis.report import render_table

    rows = fault_coverage_by_policy(_gpu(args), benchmark=args.benchmark)
    return render_table(
        ["policy", "n", "masked", "detected", "SDC", "coverage"],
        [[r.policy, r.total, r.masked, r.detected, r.sdc, r.coverage]
         for r in rows],
        title=f"Fault-detection coverage by policy ({args.benchmark})",
    )


def _cmd_policyfit(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import policy_fit_matrix
    from repro.analysis.report import render_table

    rows = policy_fit_matrix(_gpu(args))
    return render_table(
        ["kernel", "category", "HALF", "SRRS", "best"],
        [[r.kernel, r.category, r.half_ratio, r.srrs_ratio, r.best_policy]
         for r in rows],
        title="Policy fit per kernel category (Section IV-D)",
    )


def _cmd_sweeps(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import dispatch_latency_sweep, sm_count_sweep
    from repro.analysis.report import render_table

    latency_rows = dispatch_latency_sweep(
        [500.0, 1500.0, 3000.0, 6000.0, 12000.0], gpu=_gpu(args)
    )
    sm_rows = sm_count_sweep([2, 4, 6, 8, 12, 16])
    return "\n\n".join([
        render_table(
            ["dispatch latency (cy)", "HALF", "SRRS"], latency_rows,
            title="Ablation — dispatch-latency sweep (hotspot)",
        ),
        render_table(
            ["SMs", "HALF", "SRRS"], sm_rows,
            title="Ablation — SM-count sweep (hotspot)",
        ),
    ])


_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "coverage": _cmd_coverage,
    "policyfit": _cmd_policyfit,
    "sweeps": _cmd_sweeps,
}


def _gpu(args: argparse.Namespace) -> GPUConfig:
    from repro.gpu.config import GPUConfig

    return GPUConfig.gpgpusim_like(num_sms=args.sms)


# ----------------------------------------------------------------------
# declarative front door: run / batch / scenarios
# ----------------------------------------------------------------------
def _load_specs(path: str) -> List[RunSpec]:
    """Load one spec file (a single RunSpec object or a list of them)."""
    from repro.api.spec import RunSpec

    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path!r} is not valid JSON: {exc}")
    entries = data if isinstance(data, list) else [data]
    return [RunSpec.from_dict(entry) for entry in entries]


def _scenario_specs(args: argparse.Namespace) -> List[RunSpec]:
    """Build a scenario's specs from the forwarded CLI params.

    Raises:
        ConfigurationError: when a given option is not a parameter of the
            scenario's builder (silently ignoring it would run a
            different configuration than the user asked for).
    """
    import inspect

    from repro.api.scenarios import get_scenario

    scenario = get_scenario(args.scenario)
    accepted = set(inspect.signature(scenario.builder).parameters)
    params = {}
    for name, value in (("sms", args.sms), ("benchmark", args.benchmark),
                        ("policy", args.policy)):
        if value is None:
            continue
        if name not in accepted:
            raise ConfigurationError(
                f"scenario {scenario.name!r} does not accept --{name}; "
                f"its parameters are: {', '.join(sorted(accepted))}"
            )
        params[name] = value
    return scenario.build(**params)


def _artifact_table(artifacts: Sequence[RunArtifact], title: str) -> str:
    from repro.analysis.report import render_table

    rows = []
    for a in artifacts:
        timing = f"{a.timing.busy_cycles:.0f}" if a.timing else "-"
        diverse = str(a.diversity.fully_diverse) if a.diversity else "-"
        clean = str(a.comparisons.all_clean) if a.comparisons else "-"
        coverage = (
            f"{a.faults.detection_coverage:.4f}" if a.faults else "-"
        )
        cots = f"{a.cots.ratio:.3f}" if a.cots else "-"
        category = (
            a.classification[0].category if a.classification else "-"
        )
        rows.append([a.spec.label, a.spec.policy, timing, diverse, clean,
                     coverage, cots, category, a.config_hash])
    return render_table(
        ["run", "policy", "busy(cy)", "diverse", "clean", "coverage",
         "cots", "category", "config"],
        rows,
        title=title,
    )


def _emit(artifacts: List[RunArtifact], *, as_json: bool, single: bool,
          title: str) -> str:
    if as_json:
        if single and len(artifacts) == 1:
            return artifacts[0].to_json(indent=2)
        return json.dumps(
            [a.to_dict() for a in artifacts], sort_keys=True, indent=2
        )
    return _artifact_table(artifacts, title)


def _cmd_run(args: argparse.Namespace) -> str:
    if bool(args.spec) == bool(args.scenario):
        raise ConfigurationError(
            "run needs exactly one of --spec FILE or --scenario NAME"
        )
    if args.spec:
        ignored = [name for name, value in (("sms", args.sms),
                                            ("benchmark", args.benchmark),
                                            ("policy", args.policy))
                   if value is not None]
        if ignored:
            raise ConfigurationError(
                f"--{'/--'.join(ignored)} only applies to --scenario; a "
                "--spec file fully describes its run — edit the file instead"
            )
        specs = _load_specs(args.spec)
        title = f"run — {args.spec}"
    else:
        specs = _scenario_specs(args)
        title = f"run — scenario {args.scenario!r}"
    from repro.api.engine import Engine

    artifacts = Engine().run_many(specs, workers=args.workers)
    return _emit(artifacts, as_json=args.json, single=len(specs) == 1,
                 title=title)


def _cmd_batch(args: argparse.Namespace) -> str:
    from repro.api.engine import Engine

    specs: List[RunSpec] = []
    for path in args.specs:
        specs.extend(_load_specs(path))
    artifacts = Engine().run_many(specs, workers=args.workers)
    return _emit(artifacts, as_json=args.json, single=False,
                 title=f"batch — {len(specs)} runs, {args.workers} worker(s)")


# ----------------------------------------------------------------------
# observability: --telemetry/--progress plumbing and the obs command
# ----------------------------------------------------------------------
def _open_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """Build the Telemetry session the run flags ask for (or ``None``)."""
    if not (args.telemetry or args.progress):
        return None
    from repro.obs.session import DEFAULT_HEARTBEAT_S, Telemetry

    heartbeat_s = (DEFAULT_HEARTBEAT_S if args.heartbeat is None
                   else args.heartbeat)
    return Telemetry.create(path=args.telemetry, progress=args.progress,
                            heartbeat_s=heartbeat_s)


def _obs_events(ref: str, obs_dir: str) -> Tuple[List[Dict[str, Any]], str]:
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


def _cmd_obs_validate(args: argparse.Namespace) -> int:
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


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """``obs export``: one telemetry log to one analysis format."""
    from repro.obs.export import heartbeat_csv, render_chrome_trace, to_folded

    chosen = [name for name, flag in (("--chrome", args.chrome),
                                      ("--folded", args.folded),
                                      ("--csv", args.csv)) if flag]
    if len(chosen) != 1:
        raise ObsError("choose exactly one of --chrome, --folded, --csv")
    events, _ = _obs_events(args.path, args.dir)
    if args.chrome:
        text = render_chrome_trace(events) + "\n"
    elif args.folded:
        text = to_folded(events)
    else:
        text = heartbeat_csv(events)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ObsError(f"cannot write {args.out!r}: {exc}")
        print(f"wrote {chosen[0].lstrip('-')} export to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """``obs diff``: exits 0 alike / 1 significant (like ``compare``)."""
    from repro.obs.diff import diff_events, render_diff

    events_a, label_a = _obs_events(args.a, args.dir)
    events_b, label_b = _obs_events(args.b, args.dir)
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
    """Dispatch the ``obs`` analysis-plane actions; return the exit code.

    ``validate`` exits 0 when the log is schema-valid (tolerated
    findings print as warnings unless ``--strict`` promotes them), 1 on
    violations, 2 when the file cannot be read.  ``report`` and
    ``export`` render one log; ``archive``/``list``/``gc`` manage the
    ``.repro-obs`` store; ``diff`` compares two logs and exits like
    ``compare`` (0 = indistinguishable, 1 = significant difference,
    2 = misuse).
    """
    from repro.analysis.report import render_table
    from repro.obs.report import render_report, summarize
    from repro.obs.store import DEFAULT_OBS_DIR, ObsStore

    args.dir = getattr(args, "dir", None) or DEFAULT_OBS_DIR
    try:
        if args.obs_command == "validate":
            return _cmd_obs_validate(args)
        if args.obs_command == "archive":
            store = ObsStore(args.dir)
            entry = store.archive(args.path, tag=args.tag)
            kinds = ",".join(entry["kinds"]) or "-"
            print(f"archived {entry['run_id']} ({entry['events']} event(s), "
                  f"{entry['sessions']} session(s), kinds: {kinds})")
            return 0
        if args.obs_command == "list":
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
        if args.obs_command == "gc":
            removed = ObsStore(args.dir).gc(keep=args.keep)
            for entry in removed:
                print(f"removed {entry['run_id']} ({entry['source']})")
            print(f"{len(removed)} run(s) removed, keep={args.keep} "
                  "per (kinds, spec) group")
            return 0
        if args.obs_command == "export":
            return _cmd_obs_export(args)
        if args.obs_command == "diff":
            return _cmd_obs_diff(args)
        # report
        events, _ = _obs_events(args.path, args.dir)
        summary = summarize(events)
        if args.json:
            print(json.dumps(summary, sort_keys=True, indent=2))
        else:
            print(render_report(summary, top=args.top))
        return 0
    except (ObsError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# sharded campaigns: campaign run / resume / status / report
# ----------------------------------------------------------------------
def _load_campaign_spec(path: str) -> CampaignSpec:
    """Load one CampaignSpec JSON file."""
    from repro.api.campaign import CampaignSpec

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path!r}: {exc}")
    return CampaignSpec.from_json(text)


def _campaign_report_text(report: CampaignReport, *, as_json: bool,
                          title: str) -> str:
    from repro.analysis.report import render_table

    if as_json:
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    data = report.to_dict()
    table = render_table(
        ["policy", "n", "masked", "detected", "SDC", "coverage", "digest"],
        [[report.policy, report.total, report.masked, report.detected,
          report.sdc, report.detection_coverage, report.digest()]],
        title=title,
    )
    samples = data["sdc_samples"]
    if samples:
        table += "\nSDC examples: " + "; ".join(samples)
    if report.sampling is not None:
        try:
            table += "\nSDC rate: " + report.rate_interval("sdc").describe()
        except StatsError:
            pass
    return table


def _repeat_result_text(result: RepeatResult, *, as_json: bool,
                        title: str) -> str:
    from repro.analysis.report import render_table

    if as_json:
        return json.dumps(result.to_dict(), sort_keys=True, indent=2)
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


def _campaign_status_text(status, *, as_json: bool) -> str:
    from repro.analysis.report import render_table

    if as_json:
        return json.dumps(status.to_dict(), sort_keys=True, indent=2)
    return render_table(
        ["policy", "shards", "injections", "masked", "detected", "SDC",
         "complete"],
        [[status.policy or "-",
          f"{status.completed_shards}/{status.total_shards}",
          f"{status.completed_injections}/{status.total_injections}",
          status.masked, status.detected, status.sdc, status.complete]],
        title=f"Campaign status — spec {status.spec_hash}",
    )


def _cmd_campaign(args: argparse.Namespace) -> str:
    # a complete campaign's aggregate covers exactly the spec's population
    # (shards are validated against the plan, so the totals can only match
    # when every shard is in) — checking totals avoids re-reading and
    # re-verifying the whole shard log just to decide completeness
    from repro.campaigns.runner import (
        campaign_plan,
        campaign_status,
        fold_report,
        repeat_campaign,
        run_campaign,
        spec_sampling_meta,
        validated_records,
    )
    from repro.campaigns.store import CampaignStore

    command = args.campaign_command
    if command == "run":
        spec = _load_campaign_spec(args.spec)
        telemetry = _open_telemetry(args)
        try:
            if spec.repeat is not None:
                if args.max_shards is not None:
                    raise CampaignError(
                        "--max-shards does not apply to a repeat-until-"
                        "confidence campaign — the stopping rule decides"
                    )
                result = repeat_campaign(spec, store=args.dir,
                                         workers=args.workers,
                                         telemetry=telemetry)
                return _repeat_result_text(
                    result, as_json=args.json,
                    title=f"Campaign repeat — {spec.label} "
                          f"({spec.config_hash})",
                )
            report = run_campaign(spec, store=args.dir,
                                  workers=args.workers,
                                  max_shards=args.max_shards,
                                  telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
        if report.total < spec.total_injections:
            if args.dir is not None:
                return _campaign_status_text(
                    campaign_status(args.dir), as_json=args.json
                )
            qualifier = " (PARTIAL)"
        else:
            qualifier = ""
        return _campaign_report_text(
            report, as_json=args.json,
            title=f"Campaign report{qualifier} — {spec.label} "
                  f"({spec.config_hash})",
        )
    if command == "resume":
        store = CampaignStore(args.dir)
        spec = store.load_spec()
        telemetry = _open_telemetry(args)
        try:
            if spec.repeat is not None:
                if args.max_shards is not None:
                    raise CampaignError(
                        "--max-shards does not apply to a repeat-until-"
                        "confidence campaign — the stopping rule decides"
                    )
                result = repeat_campaign(spec, store=store,
                                         workers=args.workers,
                                         telemetry=telemetry)
                return _repeat_result_text(
                    result, as_json=args.json,
                    title=f"Campaign repeat — spec {spec.config_hash}",
                )
            report = run_campaign(spec, store=store, workers=args.workers,
                                  max_shards=args.max_shards,
                                  telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
        if report.total < spec.total_injections:
            return _campaign_status_text(
                campaign_status(store), as_json=args.json
            )
        return _campaign_report_text(
            report, as_json=args.json,
            title=f"Campaign report — spec {spec.config_hash}",
        )
    if command == "status":
        return _campaign_status_text(
            campaign_status(args.dir), as_json=args.json
        )
    # report: fold the persisted shards without executing anything
    store = CampaignStore(args.dir)
    spec = store.load_spec()
    plan = campaign_plan(spec)
    records = validated_records(store, plan)
    if (len(records) < len(plan) and not args.partial
            and spec.repeat is None):
        raise CampaignError(
            f"campaign incomplete ({len(records)}/{len(plan)} shards "
            f"done); resume it with `python -m repro campaign resume "
            f"--dir {args.dir}` or pass --partial for a partial fold"
        )
    report = fold_report(records.values(),
                         sampling=spec_sampling_meta(spec))
    qualifier = "" if len(records) == len(plan) else " (PARTIAL)"
    return _campaign_report_text(
        report, as_json=args.json,
        title=f"Campaign report{qualifier} — spec {spec.config_hash}",
    )


# ----------------------------------------------------------------------
# streams: stream run / report
# ----------------------------------------------------------------------
def _stream_report_text(report: StreamReport, *, as_json: bool) -> str:
    from repro.analysis.report import render_table
    from repro.analysis.streams import stream_summary_rows

    if as_json:
        return report.to_json(indent=2)
    return render_table(
        ["metric", "value"],
        stream_summary_rows(report),
        title=f"Stream report — {report.label} ({report.spec_hash})",
    )


def _cmd_stream(args: argparse.Namespace) -> str:
    from repro.streams.report import StreamReport

    if args.stream_command == "run":
        if bool(args.spec) == bool(args.task):
            raise ConfigurationError(
                "stream run needs exactly one of --spec FILE or --task NAME"
            )
        from repro.api.stream import StreamSpec
        from repro.obs.profiling import profiled
        from repro.streams.runner import run_stream

        if args.spec:
            try:
                text = Path(args.spec).read_text()
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read spec file {args.spec!r}: {exc}"
                )
            spec = StreamSpec.from_json(text)
        else:
            spec = StreamSpec.for_task(args.task)
        if args.frames is not None:
            if args.frames < 1:
                raise ConfigurationError("--frames must be >= 1")
            from dataclasses import replace

            spec = replace(spec, frames=args.frames)
        telemetry = _open_telemetry(args)
        try:
            if args.profile:
                with profiled(out=args.profile):
                    report = run_stream(spec, workers=args.workers,
                                        telemetry=telemetry)
            else:
                report = run_stream(spec, workers=args.workers,
                                    telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
        if args.out:
            try:
                Path(args.out).write_text(report.to_json(indent=2) + "\n")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot write report file {args.out!r}: {exc}"
                )
        return _stream_report_text(report, as_json=args.json)
    # report: render a previously saved StreamReport JSON file
    try:
        text = Path(args.report).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read report file {args.report!r}: {exc}"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{args.report!r} is not valid JSON: {exc}"
        )
    report = StreamReport.from_dict(data)
    return _stream_report_text(report, as_json=args.json)


# ----------------------------------------------------------------------
# platforms: platform run / plan / report
# ----------------------------------------------------------------------
def _load_platform_spec(path: str) -> PlatformSpec:
    """Load one PlatformSpec JSON file."""
    from repro.api.platform import PlatformSpec

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path!r}: {exc}")
    return PlatformSpec.from_json(text)


def _platform_report_text(report: PlatformReport, *, as_json: bool) -> str:
    from repro.analysis.platform import platform_summary_rows
    from repro.analysis.report import render_table

    if as_json:
        return report.to_json(indent=2)
    return render_table(
        ["metric", "value"],
        platform_summary_rows(report),
        title=f"Platform report — {report.label} ({report.spec_hash})",
    )


def _cmd_platform(args: argparse.Namespace) -> str:
    if args.platform_command == "run":
        spec = _load_platform_spec(args.spec)
        if args.frames is not None:
            if args.frames < 1:
                raise ConfigurationError("--frames must be >= 1")
            from dataclasses import replace

            spec = replace(spec, tasks=tuple(
                replace(task, frames=args.frames) for task in spec.tasks
            ))
        from repro.platform.runner import run_platform

        telemetry = _open_telemetry(args)
        try:
            report = run_platform(spec, workers=args.workers,
                                  telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
        if args.out:
            try:
                Path(args.out).write_text(report.to_json(indent=2) + "\n")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot write report file {args.out!r}: {exc}"
                )
        return _platform_report_text(report, as_json=args.json)
    if args.platform_command == "plan":
        spec = _load_platform_spec(args.spec)
        from repro.analysis.report import render_table
        from repro.platform.placement import plan_placement

        plan = plan_placement(spec)
        if args.json:
            return json.dumps(plan.to_dict(), sort_keys=True, indent=2)
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
        return render_table(
            ["task", "device", "utilisation", "service(ms)", "protocol(ms)"],
            rows,
            title=f"Placement plan — {spec.label} [{plan.policy}]",
        )
    # report: render a previously saved PlatformReport JSON file
    try:
        text = Path(args.report).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read report file {args.report!r}: {exc}"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{args.report!r} is not valid JSON: {exc}"
        )
    from repro.platform.report import PlatformReport

    report = PlatformReport.from_dict(data)
    return _platform_report_text(report, as_json=args.json)


# ----------------------------------------------------------------------
# significance comparison: compare
# ----------------------------------------------------------------------
def _load_artifact_json(path: str) -> Dict[str, object]:
    """Load one artifact JSON file for comparison."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read artifact {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{path!r} does not hold a JSON object"
        )
    return data


def _cmd_compare(args: argparse.Namespace) -> int:
    """Compare two artifacts; print the verdict, return the exit code.

    Exit codes mirror ``diff``: 0 = no significant difference, 1 = at
    least one rate differs significantly, 2 = misuse (unreadable files,
    mismatched artifact kinds, nothing to compare).
    """
    from repro.stats.compare import compare_artifacts, render_comparison

    try:
        payload = compare_artifacts(
            _load_artifact_json(args.a),
            _load_artifact_json(args.b),
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
    return 1 if payload["significant"] else 0


# ----------------------------------------------------------------------
# determinism linter: lint
# ----------------------------------------------------------------------
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


def _cmd_scenarios(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.api.scenarios import get_scenario, scenario_names

    return render_table(
        ["scenario", "description"],
        [[name, get_scenario(name).description] for name in scenario_names()],
        title="Registered scenarios (python -m repro run --scenario NAME)",
    )


# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and extension "
                    "experiments (Alcaide et al., DATE 2019).",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name in sorted(_COMMANDS) + ["all"]:
        p = sub.add_parser(name, help=f"regenerate the {name} artifact(s)")
        p.add_argument(
            "--sms", type=int, default=6,
            help="number of SMs for the simulated artifacts (default 6)",
        )
        p.add_argument(
            "--benchmark", default="hotspot",
            help="workload for the coverage command (default hotspot)",
        )

    run_p = sub.add_parser(
        "run", help="execute a RunSpec file or a registered scenario"
    )
    run_p.add_argument("--spec", help="path to a RunSpec JSON file")
    run_p.add_argument("--scenario", help="registered scenario name")
    run_p.add_argument("--sms", type=int, default=None,
                       help="GPU size forwarded to the scenario builder")
    run_p.add_argument("--benchmark", default=None,
                       help="benchmark forwarded to the scenario builder")
    run_p.add_argument("--policy", default=None,
                       help="policy forwarded to the scenario builder")
    run_p.add_argument("--workers", type=int, default=1,
                       help="process-pool size (default 1)")
    run_p.add_argument("--json", action="store_true",
                       help="emit full artifact JSON instead of a table")

    batch_p = sub.add_parser(
        "batch", help="execute many RunSpec files on a process pool"
    )
    batch_p.add_argument("specs", nargs="+", metavar="SPEC.json",
                         help="spec files (each a RunSpec or a list)")
    batch_p.add_argument("--workers", type=int, default=4,
                         help="process-pool size (default 4)")
    batch_p.add_argument("--json", action="store_true",
                         help="emit full artifact JSON instead of a table")

    sub.add_parser("scenarios", help="list the registered scenarios")

    compare_p = sub.add_parser(
        "compare",
        help="statistical significance diff of two artifact JSON files",
    )
    compare_p.add_argument("a", metavar="A.json",
                           help="baseline artifact (campaign/stream/BENCH)")
    compare_p.add_argument("b", metavar="B.json",
                           help="candidate artifact of the same kind")
    compare_p.add_argument("--alpha", type=float, default=0.05,
                           help="significance level of the two-proportion "
                                "tests (default 0.05)")
    compare_p.add_argument("--confidence", type=float, default=0.95,
                           help="confidence level of the bootstrap "
                                "difference intervals (default 0.95)")
    compare_p.add_argument("--resamples", type=int, default=1000,
                           help="bootstrap resamples per rate "
                                "(default 1000)")
    compare_p.add_argument("--seed", type=int, default=0,
                           help="bootstrap seed (default 0)")
    compare_p.add_argument("--json", action="store_true",
                           help="emit the stable repro-compare/v1 schema")

    lint_p = sub.add_parser(
        "lint",
        help="statically check the determinism contract (repro.lint)",
    )
    lint_p.add_argument("paths", nargs="*", default=["src/repro"],
                        metavar="PATH",
                        help="files/directories to lint (default src/repro)")
    lint_p.add_argument("--rule", action="append", metavar="RLnnn",
                        help="run only this rule (repeatable)")
    lint_p.add_argument("--config", default=None,
                        help="lint config file (default: repro-lint.toml "
                             "in the working directory, if present)")
    lint_p.add_argument("--json", action="store_true",
                        help="emit the stable JSON report schema")

    def _telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", default=None, metavar="OUT.jsonl",
                       help="append a repro-telemetry/v1 event log to this "
                            "file (inspect with `repro obs report`)")
        p.add_argument("--progress", action="store_true",
                       help="paint a live progress line on stderr")
        # the defaults below are DEFAULT_HEARTBEAT_S / DEFAULT_OBS_DIR,
        # spelled out so building the parser imports no subsystem
        p.add_argument("--heartbeat", type=float, default=None, metavar="S",
                       help="seconds between heartbeat events (default 1.0)")

    campaign_p = sub.add_parser(
        "campaign",
        help="sharded resumable fault-injection campaigns",
    )
    campaign_sub = campaign_p.add_subparsers(
        dest="campaign_command", required=True, metavar="action"
    )

    def _campaign_common(p: argparse.ArgumentParser, *,
                         execution: bool) -> None:
        if execution:
            p.add_argument("--workers", type=int, default=1,
                           help="process-pool size for shards (default 1)")
            p.add_argument("--max-shards", type=int, default=None,
                           help="run at most N pending shards, then stop "
                                "(checkpointed budget)")
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of a table")

    crun = campaign_sub.add_parser(
        "run", help="run a CampaignSpec (skips shards already in --dir)"
    )
    crun.add_argument("--spec", required=True,
                      help="path to a CampaignSpec JSON file")
    crun.add_argument("--dir", default=None,
                      help="campaign store directory (enables "
                           "checkpoint/resume; omit for in-memory)")
    _campaign_common(crun, execution=True)
    _telemetry_flags(crun)

    cresume = campaign_sub.add_parser(
        "resume", help="continue a persisted campaign from its manifest"
    )
    cresume.add_argument("--dir", required=True,
                         help="campaign store directory")
    _campaign_common(cresume, execution=True)
    _telemetry_flags(cresume)

    cstatus = campaign_sub.add_parser(
        "status", help="shard/injection progress of a campaign store"
    )
    cstatus.add_argument("--dir", required=True,
                         help="campaign store directory")
    _campaign_common(cstatus, execution=False)

    creport = campaign_sub.add_parser(
        "report", help="fold the persisted shards into the aggregate report"
    )
    creport.add_argument("--dir", required=True,
                         help="campaign store directory")
    creport.add_argument("--partial", action="store_true",
                         help="allow folding an incomplete campaign")
    _campaign_common(creport, execution=False)

    stream_p = sub.add_parser(
        "stream",
        help="continuous frame streams with online deadline analytics",
    )
    stream_sub = stream_p.add_subparsers(
        dest="stream_command", required=True, metavar="action"
    )

    srun = stream_sub.add_parser(
        "run", help="execute a StreamSpec (or a built-in ADAS task stream)"
    )
    srun.add_argument("--spec", default=None,
                      help="path to a StreamSpec JSON file")
    srun.add_argument("--task", default=None,
                      help="built-in ADAS task name (e.g. camera-perception)")
    srun.add_argument("--frames", type=int, default=None,
                      help="override the spec's frame count")
    srun.add_argument("--workers", type=int, default=1,
                      help="process-pool size for distinct-job simulation "
                           "(default 1; never changes the report)")
    srun.add_argument("--out", default=None,
                      help="also write the report JSON to this file")
    srun.add_argument("--profile", default=None, metavar="OUT.pstats",
                      help="run under cProfile and dump stats to this file "
                           "(inspect with pstats or snakeviz)")
    srun.add_argument("--json", action="store_true",
                      help="emit report JSON instead of a table")
    _telemetry_flags(srun)

    sreport = stream_sub.add_parser(
        "report", help="render a previously saved stream report"
    )
    sreport.add_argument("--report", required=True,
                         help="path to a StreamReport JSON file")
    sreport.add_argument("--json", action="store_true",
                         help="emit report JSON instead of a table")

    platform_p = sub.add_parser(
        "platform",
        help="multi-device vehicle platforms with task placement",
    )
    platform_sub = platform_p.add_subparsers(
        dest="platform_command", required=True, metavar="action"
    )

    prun = platform_sub.add_parser(
        "run", help="place and execute a PlatformSpec"
    )
    prun.add_argument("--spec", required=True,
                      help="path to a PlatformSpec JSON file")
    prun.add_argument("--frames", type=int, default=None,
                      help="override every task's frame count")
    prun.add_argument("--workers", type=int, default=1,
                      help="process-pool size, one pool task per device "
                           "(default 1; never changes the report)")
    prun.add_argument("--out", default=None,
                      help="also write the report JSON to this file")
    prun.add_argument("--json", action="store_true",
                      help="emit report JSON instead of a table")
    _telemetry_flags(prun)

    pplan = platform_sub.add_parser(
        "plan", help="show the placement decision without executing"
    )
    pplan.add_argument("--spec", required=True,
                       help="path to a PlatformSpec JSON file")
    pplan.add_argument("--json", action="store_true",
                       help="emit plan JSON instead of a table")

    preport = platform_sub.add_parser(
        "report", help="render a previously saved platform report"
    )
    preport.add_argument("--report", required=True,
                         help="path to a PlatformReport JSON file")
    preport.add_argument("--json", action="store_true",
                         help="emit report JSON instead of a table")

    obs_p = sub.add_parser(
        "obs",
        help="inspect repro-telemetry/v1 event logs (repro.obs)",
    )
    obs_sub = obs_p.add_subparsers(
        dest="obs_command", required=True, metavar="action"
    )

    def _obs_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", default=None, metavar="DIR",
                       help="telemetry archive directory "
                            "(default .repro-obs)")

    oreport = obs_sub.add_parser(
        "report", help="render run summaries, the span tree and hotspots"
    )
    oreport.add_argument("path", metavar="TELEMETRY",
                         help="telemetry file or archived tag/run-id prefix")
    oreport.add_argument("--top", type=int, default=10,
                         help="hotspot rows to show (default 10)")
    oreport.add_argument("--json", action="store_true",
                         help="emit the stable repro-obs-report/v1 schema")
    _obs_dir(oreport)

    ovalidate = obs_sub.add_parser(
        "validate", help="check a telemetry file against the v1 schema"
    )
    ovalidate.add_argument("path", metavar="TELEMETRY.jsonl",
                           help="telemetry file written by --telemetry")
    ovalidate.add_argument("--strict", action="store_true",
                           help="promote tolerated findings (unknown event "
                                "types, stale worker seq) to violations")

    oarchive = obs_sub.add_parser(
        "archive", help="copy a telemetry log into the .repro-obs archive"
    )
    oarchive.add_argument("path", metavar="TELEMETRY.jsonl",
                          help="telemetry file written by --telemetry")
    oarchive.add_argument("--tag", default="",
                          help="free-form label stored with the run")
    _obs_dir(oarchive)

    olist = obs_sub.add_parser(
        "list", help="list archived telemetry runs"
    )
    olist.add_argument("--json", action="store_true",
                       help="emit repro-obs-store/v1 manifest entries")
    _obs_dir(olist)

    ogc = obs_sub.add_parser(
        "gc", help="prune the archive, keeping the newest runs per group"
    )
    ogc.add_argument("--keep", type=int, default=5, metavar="N",
                     help="runs to keep per (kinds, spec) group (default 5)")
    _obs_dir(ogc)

    oexport = obs_sub.add_parser(
        "export", help="export a telemetry log for external tools"
    )
    oexport.add_argument("path", metavar="TELEMETRY",
                         help="telemetry file or archived tag/run-id prefix")
    oexport.add_argument("--chrome", action="store_true",
                         help="Chrome/Perfetto trace-event JSON")
    oexport.add_argument("--folded", action="store_true",
                         help="collapsed-stack lines for flamegraph tools")
    oexport.add_argument("--csv", action="store_true",
                         help="heartbeat metric series as CSV")
    oexport.add_argument("--out", metavar="FILE",
                         help="write to FILE instead of stdout")
    _obs_dir(oexport)

    odiff = obs_sub.add_parser(
        "diff", help="compare two telemetry runs (span + counter deltas)"
    )
    odiff.add_argument("a", metavar="A",
                       help="baseline: telemetry file or archived tag/run id")
    odiff.add_argument("b", metavar="B",
                       help="candidate: telemetry file or archived tag/run id")
    odiff.add_argument("--json", action="store_true",
                       help="emit the stable repro-obs-diff/v1 schema")
    odiff.add_argument("--confidence", type=float, default=0.95,
                       help="interval confidence level (default 0.95)")
    odiff.add_argument("--min-rel", type=float, default=0.10,
                       help="relative self-time change floor (default 0.10)")
    odiff.add_argument("--min-abs-ms", type=float, default=1.0,
                       help="absolute self-time change floor in ms "
                            "(default 1.0)")
    _obs_dir(odiff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "lint":
            # lint prints its own report; exit 1 = violations, 2 = misuse
            return _cmd_lint(args)
        if args.command == "compare":
            # compare prints its own verdict; exit 1 = significant
            # difference, 2 = misuse
            return _cmd_compare(args)
        if args.command == "obs":
            # obs prints its own output; exit 1 = schema violations,
            # 2 = unreadable file
            return _cmd_obs(args)
        if args.command == "run":
            print(_cmd_run(args))
        elif args.command == "batch":
            print(_cmd_batch(args))
        elif args.command == "scenarios":
            print(_cmd_scenarios(args))
        elif args.command == "campaign":
            print(_cmd_campaign(args))
        elif args.command == "stream":
            print(_cmd_stream(args))
        elif args.command == "platform":
            print(_cmd_platform(args))
        elif args.command == "all":
            print("\n\n".join(
                _COMMANDS[name](args) for name in sorted(_COMMANDS)
            ))
        else:
            print(_COMMANDS[args.command](args))
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
