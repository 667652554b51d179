"""Workload inputs and command plans of the benchmark.

Everything here is plain data: spec files are written as JSON from the
workload seed (the program only ever sees the generated files), and each
workload is a list of ``python -m repro ...`` commands.  Nothing in this
module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

WORKLOADS = ("campaign", "stream-soak", "policy-sweep")

#: Seed whose report digests are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 2019

#: Pool size of every pooled command: two workers, capped at the cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

# -- campaign: (label, benchmark, policy, injections, shards) -----------
CAMPAIGNS = (
    ("hotspot-srrs", "hotspot", "srrs", 10_000, 80),
    ("bfs-default", "bfs", "default", 3_000, 24),
)

# -- stream-soak --------------------------------------------------------
STREAM_FRAMES = 60_000

# -- policy-sweep: the eleven Fig. 4 Rodinia benchmarks -----------------
SWEEP_BENCHMARKS = ("backprop", "bfs", "dwt2d", "gaussian", "hotspot",
                    "hotspot3D", "leukocyte", "lud", "myocyte", "nn", "nw")
SWEEP_POLICIES = ("default", "half", "srrs", "staggered")
SWEEP_SMS = (6, 30)
SWEEP_REPEATS = (3, 4, 5)

#: Report digests of the default seed (see README.md, "Correctness").
PINNED_DIGESTS: Dict[str, Dict[str, str]] = {
    "campaign": {"hotspot-srrs": "dbb4e28d39d0460d",
                 "bfs-default": "d2dca9eea07eb41a"},
    "stream-soak": {"soak": "7433087be29a3adb"},
    "policy-sweep": {"sweep": "2b90fa565f6a3888"},
}


def digest_of(payload: object) -> str:
    """Digest of a report's plain-data form, as ``repro`` computes it."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sweep_payload(artifacts: List[dict]) -> List[dict]:
    """Artifacts without the version stamp, which is not a result."""
    return [{k: v for k, v in a.items() if k != "version"}
            for a in artifacts]


# ----------------------------------------------------------------------
# spec generation
# ----------------------------------------------------------------------
def _campaign_spec(benchmark: str, policy: str, total: int, shards: int,
                   fault_seed: int) -> dict:
    # the kind mix of the default fault plan (200:50:100)
    ccf = total * 4 // 7
    perm = total // 7
    return {
        "run": {"workload": {"benchmark": benchmark}, "policy": policy,
                "tag": "perfbench"},
        "faults": {"transient_ccf": ccf, "permanent_sm": perm,
                   "seu": total - ccf - perm, "seed": fault_seed},
        "shards": min(shards, total),
    }


def _stream_spec(frames: int, seed: int) -> dict:
    # the shape of benchmarks/bench_streams.py::_soak_spec
    return {
        "run": {"workload": {"benchmark": "hotspot"}, "policy": "srrs",
                "tag": "soak"},
        "arrival": {"model": "jittered", "period_ms": 0.4,
                    "jitter_ms": 0.05},
        "frames": frames,
        "queue_depth": 8,
        "deadline_ms": 2.0,
        "faults": {"probability": 0.01},
        "workload_mix": [{"benchmark": "hotspot"}, {"synthetic": "short"}],
        "seed": seed,
    }


def _sweep_specs(rng: random.Random) -> List[dict]:
    cells = [(b, p, sms) for b in SWEEP_BENCHMARKS for p in SWEEP_POLICIES
             for sms in SWEEP_SMS]
    # a seeded shuffle of a balanced multiset: the per-spec repeat varies
    # with the seed while the total kernel count stays fixed
    repeats = [SWEEP_REPEATS[i % len(SWEEP_REPEATS)]
               for i in range(len(cells))]
    rng.shuffle(repeats)
    specs = [
        {"workload": {"benchmark": b, "repeat": r}, "policy": p,
         "gpu": {"num_sms": sms}, "baseline": True, "tag": "sweep"}
        for (b, p, sms), r in zip(cells, repeats)
    ]
    rng.shuffle(specs)
    return specs


class Inputs(NamedTuple):
    """Spec files of one workload, full size and minimal size."""

    full: Dict[str, Path]
    minimal: Dict[str, Path]
    work: int  # injections, frames or specs of one full iteration


def write_inputs(workload: str, seed: int, root: Path) -> Inputs:
    """Generate the workload's spec files under ``root`` from ``seed``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    spec_dir = root / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    full: Dict[str, object] = {}
    minimal: Dict[str, object] = {}
    if workload == "campaign":
        work = 0
        for label, bench, policy, total, shards in CAMPAIGNS:
            fault_seed = rng.randrange(2 ** 31)
            full[label] = _campaign_spec(bench, policy, total, shards,
                                         fault_seed)
            minimal[label] = _campaign_spec(bench, policy, 1, 1, fault_seed)
            work += total
    elif workload == "stream-soak":
        stream_seed = rng.randrange(2 ** 31)
        full["soak"] = _stream_spec(STREAM_FRAMES, stream_seed)
        work = STREAM_FRAMES
    elif workload == "policy-sweep":
        specs = _sweep_specs(rng)
        full["sweep"] = specs
        minimal["sweep"] = specs[:1]
        work = len(specs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths: Dict[str, Dict[str, Path]] = {"full": {}, "minimal": {}}
    for size, table in (("full", full), ("minimal", minimal)):
        for label, spec in table.items():
            path = spec_dir / f"{label}.{size}.json"
            path.write_text(json.dumps(spec, indent=1, sort_keys=True))
            paths[size][label] = path
    return Inputs(paths["full"], paths["minimal"], work)


# ----------------------------------------------------------------------
# command plans
# ----------------------------------------------------------------------
class Step(NamedTuple):
    """One CLI invocation; ``report`` names the report it leaves behind."""

    args: List[str]
    report: Optional[str] = None    # digest key
    out: Optional[Path] = None      # report file (else: stdout)


def interrupt_after(total: int, shards: int) -> int:
    """Shards the interrupted ``campaign run`` executes: half the plan."""
    return max(1, min(shards, total) // 2)


def campaign_steps(specs: Dict[str, Path], base: Path) -> List[Step]:
    """run --max-shards, resume, report --json: per campaign spec."""
    steps = []
    for label, _bench, _policy, total, shards in CAMPAIGNS:
        store = base / f"store-{label}"
        steps += [
            Step(["campaign", "run", "--spec", str(specs[label]), "--dir",
                  str(store), "--workers", str(WORKERS), "--max-shards",
                  str(interrupt_after(total, shards))]),
            Step(["campaign", "resume", "--dir", str(store),
                  "--workers", str(WORKERS)]),
            Step(["campaign", "report", "--dir", str(store), "--json"],
                 report=label),
        ]
    return steps


def stream_steps(specs: Dict[str, Path], base: Path,
                 frames: Optional[int] = None) -> List[Step]:
    """One ``stream run`` at one worker, report written with ``--out``."""
    out = base / "soak-report.json"
    args = ["stream", "run", "--spec", str(specs["soak"]), "--out",
            str(out), "--workers", "1"]
    if frames is not None:
        args += ["--frames", str(frames)]
    return [Step(args, report="soak", out=out)]


def sweep_steps(specs: Dict[str, Path], base: Path) -> List[Step]:
    """One ``batch`` over the sweep specs on the pool."""
    return [Step(["batch", str(specs["sweep"]), "--workers", str(WORKERS),
                  "--json"], report="sweep")]


def iteration_steps(workload: str, inputs: Inputs, base: Path) -> List[Step]:
    """The commands of one measured iteration."""
    if workload == "campaign":
        return campaign_steps(inputs.full, base)
    if workload == "stream-soak":
        return stream_steps(inputs.full, base)
    return sweep_steps(inputs.full, base)


def setup_steps(workload: str, inputs: Inputs, base: Path) -> List[Step]:
    """The set-up probe: the workload's command at minimal size.

    One injection per campaign (``campaign run`` alone then creates the
    store, simulates the baseline and prints the whole report), one
    frame, or one spec.  Their reports are not checked.
    """
    if workload == "campaign":
        steps = [Step(["campaign", "run", "--spec", str(spec), "--dir",
                       str(base / f"store-{label}"), "--workers",
                       str(WORKERS)])
                 for label, spec in inputs.minimal.items()]
    elif workload == "stream-soak":
        steps = stream_steps(inputs.full, base, frames=1)
    else:
        steps = sweep_steps(inputs.minimal, base)
    return [step._replace(report=None) for step in steps]


def report_digest(workload: str, text: str) -> str:
    """Digest of one report as the CLI printed or wrote it."""
    payload = json.loads(text)
    if workload == "policy-sweep":
        payload = sweep_payload(payload)
    return digest_of(payload)


def sweep_events(text: str) -> int:
    """Simulated events of a ``batch --json`` output."""
    return sum(a["timing"]["events"] for a in json.loads(text)
               if a.get("timing"))
