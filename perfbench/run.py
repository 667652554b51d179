"""End-to-end and per-layer benchmark of the ``python -m repro`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 7 --trace 0

``--trace 0`` runs the workload through the real CLI, tracing off, and
reports the end-to-end metrics.  ``--trace 1`` replays the workload
in-process with every layer boundary timed (``replay.py``) and reports
the per-layer metrics.  Either way the report digests are checked, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINNED_DIGESTS,
    WORKERS,
    WORKLOADS,
    Inputs,
    Step,
    iteration_steps,
    report_digest,
    setup_steps,
    sweep_events,
    write_inputs,
)

#: Set-up probes per run (the reported ``setup_s`` is their median).
SETUP_REPEATS = 9
#: Interleaved interpreter-start probes behind ``cli.import_s``.
IMPORT_REPEATS = 7
#: /proc sampling period of the peak-RSS monitor.
RSS_PERIOD_S = 0.05

THROUGHPUT_NAME = {"campaign": "injections_per_s",
                   "stream-soak": "frames_per_s",
                   "policy-sweep": "sim_events_per_s"}


def environment() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(), "workers": WORKERS,
            "python": platform.python_version(),
            "platform": platform.platform()}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


# ----------------------------------------------------------------------
# one CLI invocation, with the peak RSS of its process tree
# ----------------------------------------------------------------------
def _hwm_kb(pid: int) -> Tuple[int, List[int]]:
    """VmHWM of ``pid`` and its child pids (0 and [] once it is gone)."""
    proc = Path("/proc") / str(pid)
    try:
        hwm = 0
        for line in (proc / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
                break
        children: List[int] = []
        for task in (proc / "task").iterdir():
            children += [int(c) for c in
                         (task / "children").read_text().split()]
        return hwm, children
    except (OSError, ValueError):
        return 0, []


class TreeRss:
    """Sum over a process tree of each process's peak RSS (VmHWM).

    VmHWM only grows, so sampling every ``RSS_PERIOD_S`` sees each
    process's peak unless it is reached in its last period.  Pool
    workers count, which is what the stream's O(1)-memory claim and the
    campaign pool need.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.hwm: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            hwm, children = _hwm_kb(pid)
            if hwm > self.hwm.get(pid, 0):
                self.hwm[pid] = hwm
            todo += children

    def _loop(self) -> None:
        while True:
            self._sample()
            if self._stop.wait(RSS_PERIOD_S):
                return

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return sum(self.hwm.values()) / 1024.0


def run_cli(args: List[str], out: Path) -> Tuple[int, float, float]:
    """Run ``python -m repro ARGS``; stdout to ``out``.

    Returns (exit code, wall seconds, peak RSS MB of the process tree).
    """
    with open(out, "wb") as stdout:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args],
                                cwd=ROOT, env=child_env(), stdout=stdout,
                                stderr=subprocess.PIPE)
        rss = TreeRss(proc.pid)
        try:
            _, err = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        peak = rss.stop()
    if proc.returncode:
        sys.stderr.write(f"perfbench: `repro {' '.join(args)}` exited "
                         f"{proc.returncode}\n{err.decode(errors='replace')}")
    return proc.returncode, wall, peak


# ----------------------------------------------------------------------
# the workload through the CLI
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, plus every report digest seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: List[Tuple[str, str]] = []   # (report, digest)


def run_iteration(workload: str, steps: List[Step], base: Path,
                  tally: Tally) -> Tuple[float, float, Optional[str]]:
    """Run the steps back to back; (wall, peak RSS, stdout of the last)."""
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    wall = peak = 0.0
    text = None
    for i, step in enumerate(steps):
        stdout = base / f"step{i}.out"
        code, seconds, rss = run_cli(step.args, stdout)
        wall += seconds
        peak = max(peak, rss)
        tally.attempted += 1
        if code:
            tally.failed += 1
            continue
        if step.report is not None:
            text = (step.out or stdout).read_text()
            try:
                tally.digests.append((step.report,
                                      report_digest(workload, text)))
            except (ValueError, KeyError, TypeError):
                tally.failed += 1
    return wall, peak, text


def measure_end_to_end(workload: str, inputs: Inputs, work: Path,
                       seconds: float, tally: Tally) -> Dict[str, float]:
    minimal = setup_steps(workload, inputs, work / "setup")
    full = iteration_steps(workload, inputs, work / "iter")
    # warm-up: byte-compile caches and the page cache, as any user has
    run_iteration(workload, minimal, work / "setup", Tally())
    setups = [run_iteration(workload, minimal, work / "setup", tally)[0]
              for _ in range(SETUP_REPEATS)]
    rates, peaks = [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        wall, peak, text = run_iteration(workload, full, work / "iter",
                                         tally)
        if workload == "policy-sweep":
            amount = sweep_events(text) if text else 0
        else:
            amount = inputs.work
        rates.append(amount / wall)
        peaks.append(peak)
    print(f"perfbench: {len(rates)} iteration(s), {THROUGHPUT_NAME[workload]}"
          f" per iteration: {', '.join(f'{r:.1f}' for r in rates)}")
    return {"setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(peaks)}


# ----------------------------------------------------------------------
# the traced in-process replay
# ----------------------------------------------------------------------
def replay(workload: str, work: Path, workers: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "replay.py"), "--workload", workload,
         "--dir", str(work), "--workers", str(workers),
         "--traced", str(int(traced))],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"replay of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_cost() -> float:
    """``import repro.cli`` minus a bare interpreter, medians of probes."""
    def probe(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       env=child_env(), check=True)
        return time.perf_counter() - t0

    probe("import repro.cli")   # warm-up
    bare, cli = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(probe("pass"))
        cli.append(probe("import repro.cli"))
    return statistics.median(cli) - statistics.median(bare)


def layer_metrics(workload: str, traced: dict, plain: dict,
                  pooled: Optional[dict]) -> Dict[str, float]:
    layers = traced["layers"]

    def stat(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m = {
        "api.spec_load_s": stat("api.spec_load", "incl_s"),
        "gpu.simulate_s": stat("gpu.simulate", "incl_s"),
        "gpu.simulate_calls": stat("gpu.simulate", "calls"),
        "gpu.sim_events": stat("gpu.simulate", "events"),
        "redundancy.diversity_s": stat("redundancy.diversity", "incl_s"),
        "redundancy.compare_s": stat("redundancy.compare", "incl_s"),
        "redundancy.compare_calls": stat("redundancy.compare", "calls"),
        "faults.sample_s": stat("faults.sample", "incl_s"),
        "faults.apply_s": stat("faults.apply", "incl_s"),
        "faults.apply_calls": stat("faults.apply", "calls"),
        "faults.classify_s": stat("faults.classify", "incl_s"),
        "faults.classify_calls": stat("faults.classify", "calls"),
        "campaigns.store_append_s": stat("campaigns.store_append", "incl_s"),
        "campaigns.store_appends": stat("campaigns.store_append", "calls"),
        "campaigns.store_load_s": stat("campaigns.store_load", "incl_s"),
        "campaigns.fold_s": stat("campaigns.fold", "incl_s"),
        "campaigns.self_s": stat("campaigns.run", "self_s"),
        "streams.resolve_jobs_s": stat("streams.resolve_jobs", "incl_s"),
        "streams.substream_s": stat("streams.substream", "incl_s"),
        "streams.analytics_s": stat("streams.analytics", "incl_s"),
        "streams.self_s": stat("streams.run", "self_s"),
        "trace.attributed_frac": traced["covered_s"] / traced["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"],
    }
    m["gpu.sim_events_per_s"] = rate(m["gpu.sim_events"], m["gpu.simulate_s"])
    m["faults.classify_per_s"] = rate(m["faults.classify_calls"],
                                      m["faults.classify_s"])
    for outcome, count in traced["outcomes"].items():
        m[f"faults.outcomes.{outcome}"] = float(count)
    m["campaigns.pool_efficiency"] = (
        plain["exec_s"] / (WORKERS * pooled["exec_s"])
        if pooled is not None else 0.0
    )
    return m


def measure_layers(workload: str, inputs: Inputs, work: Path,
                   seconds: float, tally: Tally
                   ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics (medians over replay rounds) and the digests of
    the first traced replay."""
    # one CLI iteration, for the digests the replays must reproduce
    run_iteration(workload, iteration_steps(workload, inputs, work / "iter"),
                  work / "iter", tally)
    import_s = import_cost()
    rounds: List[Dict[str, float]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = replay(workload, work, 1, traced=False)
        traced = replay(workload, work, 1, traced=True)
        if not rounds:
            reference = traced["digests"]
        pooled = (replay(workload, work, WORKERS, traced=False)
                  if workload == "campaign" else None)
        for result in (plain, traced, pooled):
            if result is None:
                continue
            tally.attempted += 1
            tally.digests += sorted(result["digests"].items())
        check_outcomes(traced, tally)
        rounds.append(layer_metrics(workload, traced, plain, pooled))
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    metrics["cli.import_s"] = import_s
    return metrics, reference


def check_outcomes(traced: dict, tally: Tally) -> None:
    """The classifier's own outcome counts must match the reports'."""
    seen = traced["layers"].get("faults.classify", {})
    if seen.get("calls", 0) == 0:
        return  # nothing classified through the wrapped entry point
    for outcome, count in traced["outcomes"].items():
        if seen.get(outcome, 0) != count:
            tally.failed += 1
            sys.stderr.write(f"perfbench: traced classify saw "
                             f"{seen.get(outcome, 0)} {outcome}, the "
                             f"reports say {count}\n")


# ----------------------------------------------------------------------
def check_digests(workload: str, seed: int, reference: Dict[str, str],
                  tally: Tally) -> None:
    """Every report must match the traced replay (and, on the default
    seed, the pinned digests)."""
    expected = dict(reference)
    if seed == DEFAULT_SEED:
        pinned = PINNED_DIGESTS[workload]
        for report, digest in expected.items():
            if pinned.get(report) != digest:
                tally.failed += 1
                sys.stderr.write(f"perfbench: {workload}/{report} digest "
                                 f"{digest} != pinned {pinned.get(report)}\n")
    for report, digest in tally.digests:
        if expected.get(report) != digest:
            tally.failed += 1
            sys.stderr.write(f"perfbench: {workload}/{report} digest "
                             f"{digest} != replay {expected.get(report)}\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> Tuple[Dict[str, float], Tally]:
    inputs = write_inputs(workload, seed, work)
    tally = Tally()
    if trace:
        metrics, reference = measure_layers(workload, inputs, work, seconds,
                                            tally)
    else:
        metrics = measure_end_to_end(workload, inputs, work, seconds, tally)
        # the reference: a traced in-process replay of the same spec files
        reference = replay(workload, work, 1, traced=True)["digests"]
        tally.attempted += 1
    check_digests(workload, seed, reference, tally)
    return metrics, tally


def main(argv: Optional[List[str]] = None) -> int:
    # metric names, units and run length, as declared for the driver
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of python -m repro")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"environment": environment(), "seed": args.seed,
                      "trace": args.trace, "seconds": args.seconds}))
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            values, tally = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace),
                                         scratch / workload)
            attempted += tally.attempted
            failed += tally.failed
            units = {m["name"]: m["unit"] for m in
                     declared["per_layer" if args.trace else "end_to_end"]}
            if set(values) != set(units):
                raise RuntimeError(f"{workload} measured {sorted(values)}, "
                                   "not the metrics BENCHMARK.json declares")
            prefix = f"{workload}/" if len(workloads) > 1 else ""
            for name, value in sorted(values.items()):
                unit = units[name]
                label = (THROUGHPUT_NAME[workload]
                         if name == "throughput_per_s" else name)
                print(f"{workload:>13}  {label:<28} {value:>14.6g} {unit}")
                metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"{workload:>13}  {'error_rate':<28} "
                  f"{tally.failed / max(1, tally.attempted):>14.6g} "
                  f"({tally.failed}/{tally.attempted})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
