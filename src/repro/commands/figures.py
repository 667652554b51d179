"""Figure commands and the declarative front door.

Figure commands regenerate the paper's artifacts::

    python -m repro fig1            # ASIL decomposition examples
    python -m repro fig3            # kernel categories
    python -m repro fig4            # scheduler policy comparison
    python -m repro fig5            # COTS end-to-end comparison
    python -m repro coverage        # fault-injection coverage by policy
    python -m repro policyfit       # Section IV-D policy-fit matrix
    python -m repro sweeps          # dispatch-latency / SM-count ablations
    python -m repro all             # everything above

``--sms N`` changes the GPU size for the simulated artifacts and
``--benchmark NAME`` selects the workload for ``coverage``.

The declarative front door (:mod:`repro.api`)::

    python -m repro scenarios                       # list the registry
    python -m repro run --spec spec.json            # one RunSpec file
    python -m repro run --scenario fig4 --json      # a named scenario
    python -m repro batch a.json b.json --workers 4 # parallel batch

``run``/``batch`` accept ``--json`` to emit the full artifact(s) as JSON;
spec files may hold a single RunSpec object or a list of them.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from repro.commands.common import add_json_flag, read_json
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.api.artifact import RunArtifact
    from repro.api.spec import RunSpec
    from repro.gpu.config import GPUConfig

__all__ = ["configure"]


def _gpu(args: argparse.Namespace) -> GPUConfig:
    from repro.gpu.config import GPUConfig

    return GPUConfig.gpgpusim_like(num_sms=args.sms)


def _fig1(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.iso26262.decomposition import FIGURE1_EXAMPLES

    return render_table(
        ["example", "decomposition"],
        [[name, rule.describe()] for name, rule in FIGURE1_EXAMPLES],
        title="Figure 1 — ASIL decomposition examples",
    )


def _artifacts(name: str, **params) -> List[RunArtifact]:
    """Run one registered scenario on the Engine."""
    from repro.api.engine import Engine
    from repro.api.scenarios import build_scenario

    return Engine().run_many(build_scenario(name, **params))


def _fig3(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table

    rows = [a.classification[0] for a in _artifacts("fig3", gpu=_gpu(args))]
    return render_table(
        ["kernel", "category", "isolated(cy)", "overlap", "policy"],
        [[r.kernel, r.category, r.isolated_cycles, r.overlap_fraction,
          r.recommended_policy] for r in rows],
        title="Figure 3 — Kernel categories",
    )


def _fig4(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.api.scenarios import normalized_busy_cycles

    artifacts = _artifacts("fig4", gpu=_gpu(args))
    default = {a.spec.tag: a.timing.busy_cycles for a in artifacts
               if a.spec.policy == "default"}
    return render_table(
        ["benchmark", "default(cy)", "HALF", "SRRS"],
        [[tag, default[tag], r["half"], r["srrs"]]
         for tag, r in normalized_busy_cycles(artifacts).items()],
        title="Figure 4 — Redundant kernel cycles (normalized to default)",
    )


def _fig5(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table

    rows = [a.cots for a in _artifacts("fig5")]
    return render_table(
        ["benchmark", "baseline(ms)", "redundant(ms)", "ratio"],
        [[r.benchmark, r.baseline_ms, r.redundant_ms, r.ratio] for r in rows],
        title="Figure 5 — COTS end-to-end execution time",
    )


def _coverage(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table

    rows = [a.faults for a in _artifacts("coverage", gpu=_gpu(args),
                                         benchmark=args.benchmark)]
    return render_table(
        ["policy", "n", "masked", "detected", "SDC", "coverage"],
        [[r.policy, r.total, r.masked, r.detected, r.sdc,
          r.detection_coverage] for r in rows],
        title=f"Fault-detection coverage by policy ({args.benchmark})",
    )


def _policyfit(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.api.scenarios import normalized_busy_cycles

    artifacts = _artifacts("policyfit", gpu=_gpu(args))
    kinds = {a.spec.tag: a.classification[0] for a in artifacts
             if a.classification}
    rows = []
    for tag, r in normalized_busy_cycles(artifacts).items():
        best = "half" if r["half"] < r["srrs"] else "srrs"
        rows.append([kinds[tag].kernel, kinds[tag].category, r["half"],
                     r["srrs"], best])
    return render_table(
        ["kernel", "category", "HALF", "SRRS", "best"], rows,
        title="Policy fit per kernel category (Section IV-D)",
    )


def _sweeps(args: argparse.Namespace) -> str:
    from repro.analysis.report import render_table
    from repro.api.scenarios import normalized_busy_cycles

    latencies = (500.0, 1500.0, 3000.0, 6000.0, 12000.0)
    sm_counts = (2, 4, 6, 8, 12, 16)
    latency = normalized_busy_cycles(
        _artifacts("sweep-dispatch", latencies=latencies, gpu=_gpu(args)))
    sms = normalized_busy_cycles(_artifacts("sweep-sms", sm_counts=sm_counts))
    return "\n\n".join([
        render_table(
            ["dispatch latency (cy)", "HALF", "SRRS"],
            [[x, r["half"], r["srrs"]]
             for x, r in zip(latencies, latency.values())],
            title="Ablation — dispatch-latency sweep (hotspot)",
        ),
        render_table(
            ["SMs", "HALF", "SRRS"],
            [[x, r["half"], r["srrs"]] for x, r in zip(sm_counts, sms.values())],
            title="Ablation — SM-count sweep (hotspot)",
        ),
    ])


#: figure command -> the table it renders (``all`` renders each in turn)
FIGURES: Dict[str, Callable[[argparse.Namespace], str]] = {
    "coverage": _coverage,
    "fig1": _fig1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "policyfit": _policyfit,
    "sweeps": _sweeps,
}


def _cmd_figure(args: argparse.Namespace) -> int:
    names = sorted(FIGURES) if args.command == "all" else [args.command]
    print("\n\n".join(FIGURES[name](args) for name in names))
    return 0


# ----------------------------------------------------------------------
# declarative front door: run / batch / scenarios
# ----------------------------------------------------------------------
def _load_specs(path: str) -> List[RunSpec]:
    """Load one spec file (a single RunSpec object or a list of them)."""
    from repro.api.spec import RunSpec

    data = read_json(path, "spec file")
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


def _emit(artifacts: List[RunArtifact], args: argparse.Namespace, *,
          single: bool, title: str) -> int:
    """Print the artifacts: one JSON object, a JSON list or a table."""
    if not args.json:
        print(_artifact_table(artifacts, title))
    elif single and len(artifacts) == 1:
        print(artifacts[0].to_json(indent=2))
    else:
        print(json.dumps([a.to_dict() for a in artifacts], sort_keys=True,
                         indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if bool(args.spec) == bool(args.scenario):
        raise ConfigurationError(
            "run needs exactly one of --spec FILE or --scenario NAME"
        )
    ignored = [name for name, value in (("sms", args.sms),
                                        ("benchmark", args.benchmark),
                                        ("policy", args.policy))
               if value is not None]
    if args.spec and ignored:
        raise ConfigurationError(
            f"--{'/--'.join(ignored)} only applies to --scenario; a "
            "--spec file fully describes its run — edit the file instead"
        )
    # the execution stack before the specs: the import order
    # repro.campaigns.runner documents
    from repro.api.engine import Engine

    if args.spec:
        specs = _load_specs(args.spec)
        title = f"run — {args.spec}"
    else:
        specs = _scenario_specs(args)
        title = f"run — scenario {args.scenario!r}"
    artifacts = Engine().run_many(specs, workers=args.workers)
    return _emit(artifacts, args, single=len(specs) == 1, title=title)


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.api.engine import Engine

    specs = [spec for path in args.specs for spec in _load_specs(path)]
    artifacts = Engine().run_many(specs, workers=args.workers)
    return _emit(artifacts, args, single=False,
                 title=f"batch — {len(specs)} runs, {args.workers} worker(s)")


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.api.scenarios import get_scenario, scenario_names

    print(render_table(
        ["scenario", "description"],
        [[name, get_scenario(name).description] for name in scenario_names()],
        title="Registered scenarios (python -m repro run --scenario NAME)",
    ))
    return 0


def configure(parser: argparse.ArgumentParser, command: str) -> None:
    """Add ``command``'s arguments and handler to its subparser."""
    if command == "run":
        parser.add_argument("--spec", help="path to a RunSpec JSON file")
        parser.add_argument("--scenario", help="registered scenario name")
        parser.add_argument("--sms", type=int, default=None,
                            help="GPU size forwarded to the scenario builder")
        parser.add_argument("--benchmark", default=None,
                            help="benchmark forwarded to the scenario builder")
        parser.add_argument("--policy", default=None,
                            help="policy forwarded to the scenario builder")
        parser.add_argument("--workers", type=int, default=1,
                            help="process-pool size (default 1)")
        add_json_flag(parser, "emit full artifact JSON instead of a table")
        parser.set_defaults(handler=_cmd_run)
    elif command == "batch":
        parser.add_argument("specs", nargs="+", metavar="SPEC.json",
                            help="spec files (each a RunSpec or a list)")
        parser.add_argument("--workers", type=int, default=4,
                            help="process-pool size (default 4)")
        add_json_flag(parser, "emit full artifact JSON instead of a table")
        parser.set_defaults(handler=_cmd_batch)
    elif command == "scenarios":
        parser.set_defaults(handler=_cmd_scenarios)
    else:
        parser.add_argument(
            "--sms", type=int, default=6,
            help="number of SMs for the simulated artifacts (default 6)",
        )
        parser.add_argument(
            "--benchmark", default="hotspot",
            help="workload for the coverage command (default hotspot)",
        )
        parser.set_defaults(handler=_cmd_figure)
