#!/usr/bin/env python3
"""Profile the repo's four hot loops so perf work starts from data.

Runs :func:`repro.obs.profiled` — the same cProfile wiring behind
``repro stream run --profile`` — over the workloads the throughput
benchmarks gate:

* ``het-grid`` — the ``large_grid_heterogeneous`` simulator scenario
  (1024 distinct-footprint launches on a 64-SM GPU), the headline
  event-loop workload of ``BENCH_simulator.json``;
* ``soak`` — the 100k-frame stream soak of ``BENCH_streams.json``
  (jittered arrivals, 1% fault overlay), the frame-loop workload;
* ``campaign`` — the 20k-injection hotspot/SRRS campaign of
  ``BENCH_campaigns.json`` run in-process (one worker, 16 shards): the
  shard loop, fault sampling and classification;
* ``sweep`` — the ``fig4_sweep`` scenario of ``BENCH_simulator.json``:
  the 88-spec Fig. 4 policy sweep with baselines, in-process on one
  worker — the per-block placement and retirement path of the
  simulator, plus diversity analysis.

For each selected scenario the top functions by cumulative time are
printed (default 25), and ``--out DIR`` additionally saves a
``<scenario>.pstats`` file for ``snakeviz`` / ``pstats`` digging.
``--spans`` runs the soak under an in-memory telemetry session first
and prints its phase span tree — use it to pick the phase worth
profiling before paying the ~2x profiler overhead.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotspots.py \
        [het-grid|soak|campaign|sweep|all]
        [--frames N] [--top N] [--out DIR] [--spans]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict


def _profile(label: str, fn: Callable[[], object], *, top: int,
             out_dir: Path = None) -> None:
    """Profile one workload and print its top-``top`` cumulative rows."""
    from repro.obs import profiled

    print(f"=== {label} ===")
    out = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{label}.pstats"
    with profiled(out=out, top=top):
        fn()
    if out is not None:
        print(f"saved {out}")


def _span_report(frames: int) -> None:
    """Run the soak under telemetry and print its phase span tree."""
    from repro.obs import MemorySink, Telemetry, render_report, summarize

    telemetry = Telemetry(MemorySink())
    _run_soak(frames, telemetry=telemetry)
    telemetry.close()
    print("=== soak span tree ===")
    print(render_report(summarize(telemetry.sink.events)))


def _run_het_grid() -> object:
    """The ``large_grid_heterogeneous`` simulator scenario."""
    from repro.gpu.config import GPUConfig, SMConfig
    from repro.gpu.kernel import KernelDescriptor, KernelLaunch
    from repro.gpu.scheduler import DefaultScheduler
    from repro.gpu.simulator import GPUSimulator

    gpu = GPUConfig(
        name="wide-64sm", num_sms=64,
        sm=SMConfig(max_threads=2048, max_blocks=16, registers=65536,
                    shared_memory=65536),
        dram_bandwidth=512.0, dispatch_latency=5.0,
    )
    launches = [
        KernelLaunch(
            kernel=KernelDescriptor(
                name=f"perf/het{i}", grid_blocks=16, threads_per_block=128,
                work_per_block=500.0 + 7.0 * i,
                bytes_per_block=300.0 + 3.0 * i,
            ),
            instance_id=i,
        )
        for i in range(1024)
    ]
    return GPUSimulator(gpu, DefaultScheduler()).run(launches)


def _run_soak(frames: int, telemetry=None) -> object:
    """The 100k-frame stream soak scenario (scaled by ``--frames``)."""
    from bench_streams import _soak_spec

    from repro.streams import run_stream

    return run_stream(_soak_spec(frames), workers=1, telemetry=telemetry)


def _run_campaign() -> object:
    """The 20k-injection campaign of ``campaign/worker_scaling``."""
    from bench_campaigns import _campaign_spec

    from repro.campaigns.runner import run_campaign

    return run_campaign(_campaign_spec(20_000, shards=16), workers=1)


def _run_sweep() -> object:
    """The ``fig4_sweep`` scenario (88 specs, one worker)."""
    from bench_simulator_performance import fig4_sweep_specs, run_fig4_sweep

    return run_fig4_sweep(fig4_sweep_specs())


def main(argv=None) -> int:
    """CLI entry point (see the module docstring)."""
    parser = argparse.ArgumentParser(
        description="cProfile the simulator event loop, the stream "
                    "frame loop, the campaign shard loop and the Fig. 4 "
                    "policy sweep."
    )
    parser.add_argument("scenario", nargs="?", default="all",
                        choices=("het-grid", "soak", "campaign", "sweep",
                                 "all"),
                        help="which hot loop to profile (default all)")
    parser.add_argument("--frames", type=int, default=100_000,
                        help="soak length in frames (default %(default)s)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the cumulative-time dump "
                             "(default %(default)s)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to save <scenario>.pstats files in")
    parser.add_argument("--spans", action="store_true",
                        help="print the soak's telemetry span tree before "
                             "profiling (phase-level timings)")
    args = parser.parse_args(argv)

    if args.spans:
        _span_report(args.frames)
    runs: Dict[str, Callable[[], object]] = {}
    if args.scenario in ("het-grid", "all"):
        runs["het-grid"] = _run_het_grid
    if args.scenario in ("soak", "all"):
        runs["soak"] = lambda: _run_soak(args.frames)
    if args.scenario in ("campaign", "all"):
        runs["campaign"] = _run_campaign
    if args.scenario in ("sweep", "all"):
        runs["sweep"] = _run_sweep
    for label, fn in runs.items():
        _profile(label, fn, top=args.top, out_dir=args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
