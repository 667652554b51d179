"""In-process replay of one workload, optionally with layer timing.

Run as a child of ``run.py`` so that every replay starts from a cold
interpreter (no warm baseline cache, no wrappers left behind)::

    python3 perfbench/replay.py --workload campaign --dir WORK \
        --workers 1 --traced 1

It replays the same spec files the CLI workload uses, calling the same
public functions the CLI calls, and prints one JSON object: report
digests, the replay's wall time and, when traced, per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGNS,
    digest_of,
    interrupt_after,
    sweep_payload,
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""

    def count_events(stats, result):
        stats.extra["events"] = (stats.extra.get("events", 0)
                                 + getattr(result, "events", 0))

    def count_outcome(stats, result):
        outcome = getattr(getattr(result, "outcome", None), "name", None)
        if outcome is not None:
            key = outcome.lower()
            stats.extra[key] = stats.extra.get(key, 0) + 1

    t = tracer
    t.wrap_method("repro.gpu.simulator", "GPUSimulator", "run",
                  "gpu.simulate", on_result=count_events)
    t.wrap_function("repro.redundancy.diversity", "analyze_diversity",
                    "redundancy.diversity")
    t.wrap_function("repro.redundancy.comparison", "build_signature",
                    "redundancy.compare")
    t.wrap_function("repro.redundancy.comparison", "compare_signatures",
                    "redundancy.compare")
    t.wrap_method("repro.faults.campaign", "FaultCampaign", "fault_at",
                  "faults.sample")
    t.wrap_method("repro.faults.campaign", "FaultCampaign", "random_fault",
                  "faults.sample")
    t.wrap_function("repro.faults.injector", "apply_fault", "faults.apply")
    t.wrap_method("repro.faults.campaign", "FaultCampaign", "classify",
                  "faults.classify", on_result=count_outcome)
    t.wrap_method("repro.campaigns.store", "CampaignStore", "append",
                  "campaigns.store_append")
    t.wrap_method("repro.campaigns.store", "CampaignStore", "load_records",
                  "campaigns.store_load")
    t.wrap_method("repro.campaigns.store", "CampaignStore", "load_spec",
                  "campaigns.store_load")
    t.wrap_function("repro.campaigns.runner", "fold_report",
                    "campaigns.fold")
    t.wrap_function("repro.campaigns.runner", "run_campaign",
                    "campaigns.run", root=True)
    t.wrap_function("repro.streams.runner", "run_stream", "streams.run",
                    root=True)
    t.wrap_function("repro.streams.jobs", "resolve_jobs",
                    "streams.resolve_jobs")
    t.wrap_factory("repro.streams.arrivals", "substream_factory",
                   "streams.substream")
    t.wrap_method("repro.streams.analytics", "StreamAccumulator", "observe",
                  "streams.analytics")


def replay_campaign(work: Path, out: Path, workers: int, load) -> dict:
    from repro.api.campaign import CampaignSpec
    from repro.campaigns import runner
    from repro.campaigns.store import CampaignStore

    digests = {}
    outcomes = {"masked": 0, "detected": 0, "sdc": 0}
    exec_s = 0.0
    for label, _bench, _policy, total, shards in CAMPAIGNS:
        spec = load(work / "specs" / f"{label}.full.json",
                    CampaignSpec.from_json)
        store_dir = out / f"store-{label}"
        # campaign run --max-shards: a partial run prints the status
        t0 = time.perf_counter()
        runner.run_campaign(spec, store=store_dir, workers=workers,
                            max_shards=interrupt_after(total, shards))
        exec_s += time.perf_counter() - t0
        runner.campaign_status(store_dir)
        # campaign resume
        store = CampaignStore(store_dir)
        resumed = store.load_spec()
        t0 = time.perf_counter()
        runner.run_campaign(resumed, store=store, workers=workers)
        exec_s += time.perf_counter() - t0
        # campaign report --json
        store = CampaignStore(store_dir)
        stored = store.load_spec()
        records = runner.validated_records(store,
                                           runner.campaign_plan(stored))
        report = runner.fold_report(
            records.values(), sampling=runner.spec_sampling_meta(stored))
        payload = report.to_dict()
        (out / f"{label}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2))
        digests[label] = digest_of(payload)
        for key in outcomes:
            outcomes[key] += payload[key]
    return {"digests": digests, "outcomes": outcomes, "exec_s": exec_s}


def replay_stream(work: Path, out: Path, workers: int, load) -> dict:
    # the stream workload runs at one worker whatever the pool size
    from repro.api.stream import StreamSpec
    from repro.streams import runner

    spec = load(work / "specs" / "soak.full.json", StreamSpec.from_json)
    t0 = time.perf_counter()
    report = runner.run_stream(spec, workers=1)
    exec_s = time.perf_counter() - t0
    payload = report.to_dict()
    (out / "soak.json").write_text(json.dumps(payload, sort_keys=True,
                                              indent=2))
    return {"digests": {"soak": digest_of(payload)},
            "outcomes": {"masked": report.faults_masked,
                         "detected": report.faults_detected,
                         "sdc": report.faults_sdc},
            "exec_s": exec_s}


def replay_sweep(work: Path, out: Path, workers: int, load) -> dict:
    from repro.api import engine
    from repro.api.spec import RunSpec

    specs = load(work / "specs" / "sweep.full.json",
                 lambda text: [RunSpec.from_dict(entry)
                               for entry in json.loads(text)])
    t0 = time.perf_counter()
    artifacts = engine.Engine().run_many(specs, workers=workers)
    exec_s = time.perf_counter() - t0
    payload = [a.to_dict() for a in artifacts]
    (out / "sweep.json").write_text(json.dumps(payload, sort_keys=True))
    return {"digests": {"sweep": digest_of(sweep_payload(payload))},
            "outcomes": {"masked": 0, "detected": 0, "sdc": 0},
            "exec_s": exec_s}


def load_spec(path: Path, parse):
    """Read and parse one spec file (the ``api.spec_load`` layer)."""
    return parse(path.read_text())


REPLAYS = {
    "campaign": replay_campaign,
    "stream-soak": replay_stream,
    "policy-sweep": replay_sweep,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REPLAYS),
                        required=True)
    parser.add_argument("--dir", required=True, type=Path,
                        help="work directory holding specs/")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import repro.cli  # noqa: F401  (the CLI's import set, before wrapping)

    tracer = Tracer()
    if args.traced:
        install(tracer)
        load = tracer.timed("api.spec_load", load_spec)
    else:
        load = load_spec
    out = args.dir / f"replay-w{args.workers}-t{args.traced}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    t0 = time.perf_counter()
    result = REPLAYS[args.workload](args.dir, out, args.workers, load)
    result["wall_s"] = time.perf_counter() - t0
    result["covered_s"] = tracer.covered_s
    result["layers"] = {
        name: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s,
               **s.extra}
        for name, s in tracer.layers.items()
    }
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
