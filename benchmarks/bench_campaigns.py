"""Benchmarks of the sharded campaign orchestration layer.

Exercises the acceptance scenario of the campaigns subsystem: a
100k-injection campaign is run sharded across 4 workers, interrupted
mid-way, resumed, and its aggregate report is verified bit-identical to
the unsharded single-process run.  A second scenario measures
injections/second against the worker count, and a third times fault
classification alone (``FaultCampaign.classify``, no shards, store or
pool), so the gap to the second is the orchestration cost.  The CLI leg
(``campaign/cli``) times ``python -m repro campaign run|status|report``
in fresh interpreters without bytecode caches — the start-up every
command pays before any campaign work — and records how many ``repro``
modules each command loads.

The ``campaign/*`` scenarios emit ``BENCH_campaigns.json`` at the
repository root (wall seconds, injections/sec, worker-scaling speedups,
and the aggregate digests proving determinism) so CI can track campaign
throughput across PRs.  They run meaningfully under every pytest-benchmark
mode, including ``--benchmark-disable``.

Note on speedups: the recorded scaling is bounded by the machine's core
count — on a single-core runner every worker count lands near 1.0x and
only the determinism assertions carry information.  The digests must
match *everywhere*.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time

from _bench_artifacts import REPO_ROOT, BenchArtifact

from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RepeatSpec,
    RunSpec,
    SamplingSpec,
    WorkloadSpec,
)
from repro.campaigns import (
    CampaignStore,
    baseline_campaign,
    campaign_status,
    repeat_campaign,
    resume_campaign,
    run_campaign,
)
from repro.faults.outcomes import FaultOutcome
from repro.obs import Telemetry

_ARTIFACT = BenchArtifact(
    "BENCH_campaigns.json", "bench-campaigns/v2",
    "benchmarks/bench_campaigns.py",
)
_record = _ARTIFACT.record


def _campaign_spec(total: int, *, shards: int, seed: int = 7) -> CampaignSpec:
    ccf = total * 6 // 10
    perm = total * 2 // 10
    seu = total - ccf - perm
    return CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=ccf, permanent_sm=perm, seu=seu,
                             seed=seed),
        shards=shards,
    )


def _worker_scaling(spec: CampaignSpec, worker_counts):
    """Run ``spec`` in memory at each worker count and time every run.

    Each row carries the aggregate digest, which the determinism contract
    makes identical across worker counts; speedups are relative to the
    first count.
    """
    rows = []
    base = 0.0
    for workers in worker_counts:
        start = time.perf_counter()
        report = run_campaign(spec, workers=workers)
        wall = time.perf_counter() - start
        throughput = report.total / wall if wall > 0 else float("inf")
        base = base or throughput
        rows.append({
            "workers": workers,
            "injections": report.total,
            "wall_s": round(wall, 6),
            "injections_per_sec": round(throughput, 1),
            "speedup_vs_w1": round(throughput / base, 3),
            "digest": report.digest(),
        })
    return rows


def test_campaign_100k_interrupt_resume_bit_identity(benchmark, tmp_path):
    """BENCH scenario ``campaign/resume_bit_identity``: 100k injections,
    32 shards, 4 workers, killed after 12 shards, resumed — the aggregate
    must be bit-identical to the unsharded single-process run.
    """
    total = 100_000
    sharded_spec = _campaign_spec(total, shards=32)
    unsharded_spec = _campaign_spec(total, shards=1)
    store = CampaignStore(tmp_path / "store")

    def run():
        t0 = time.perf_counter()
        reference = run_campaign(unsharded_spec, workers=1)
        unsharded_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_campaign(sharded_spec, store=store, workers=4, max_shards=12)
        interrupted_s = time.perf_counter() - t0
        status = campaign_status(store)
        assert not status.complete
        assert status.completed_shards == 12

        t0 = time.perf_counter()
        resumed = resume_campaign(store, workers=4)
        resumed_s = time.perf_counter() - t0
        assert campaign_status(store).complete

        assert resumed.total == total
        assert resumed.to_dict() == reference.to_dict()
        assert resumed.digest() == reference.digest()

        sharded_total_s = interrupted_s + resumed_s
        _record(
            "campaign/resume_bit_identity",
            injections=total,
            shards=32,
            workers=4,
            interrupted_after_shards=12,
            unsharded_s=round(unsharded_s, 3),
            sharded_total_s=round(sharded_total_s, 3),
            injections_per_sec_unsharded=round(total / unsharded_s, 1),
            injections_per_sec_sharded=round(total / sharded_total_s, 1),
            digest=resumed.digest(),
            bit_identical=True,
        )
        return resumed

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.sdc == 0  # SRRS detects everything (the paper's claim)


def test_campaign_worker_scaling(benchmark):
    """BENCH scenario ``campaign/worker_scaling``: injections/sec at 1, 2
    and 4 workers over the same 20k-injection campaign, with the digest
    cross-check that parallelism never changes the aggregate.
    """
    spec = _campaign_spec(20_000, shards=16)

    def run():
        rows = _worker_scaling(spec, worker_counts=(1, 2, 4))
        digests = {row["digest"] for row in rows}
        assert len(digests) == 1  # determinism across worker counts

        # obs-overhead guard: a disabled Telemetry session (null sink,
        # one boolean check per shard) must not slow the shard loop —
        # interleaved best-of-3 legs damp scheduler noise (single legs
        # swing far more than the true cost on a loaded runner);
        # `repro compare` fails the gate when obs_overhead_frac exceeds
        # 2%
        null_legs = []
        plain_legs = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_campaign(spec, workers=1)
            plain_legs.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            null = run_campaign(spec, workers=1, telemetry=Telemetry())
            null_legs.append(time.perf_counter() - t0)
            assert null.digest() == rows[0]["digest"]
        obs_overhead_frac = max(
            0.0, round(min(null_legs) / min(plain_legs) - 1.0, 4)
        )

        for row in rows:
            extra = ({"obs_overhead_frac": obs_overhead_frac}
                     if row["workers"] == 1 else {})
            _record(f"campaign/worker_scaling_w{row['workers']}", **row,
                    **extra)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [row["workers"] for row in rows] == [1, 2, 4]
    assert all(row["injections"] == 20_000 for row in rows)


def test_campaign_classify_throughput(benchmark):
    """BENCH scenario ``campaign/classify``: classification alone over the
    20k-injection population of ``campaign/worker_scaling``.

    The clean baseline is simulated and the faults are sampled before
    the clock starts, so ``classify_injections_per_sec`` is the fault
    classify layer (per-SM column window lookup, ``effect_on`` on the
    candidate rows, corrupted-cell comparison) without shard planning,
    spec round-trips, store appends or the pool.  Best of 3 passes.
    """
    spec = _campaign_spec(20_000, shards=16)
    campaign = baseline_campaign(spec.run)
    plan = spec.effective_faults
    faults = campaign.sample_range(plan, 0, plan.total_injections)

    def run():
        legs = []
        for _ in range(3):
            t0 = time.perf_counter()
            outcomes = [campaign.classify(fault).outcome for fault in faults]
            legs.append(time.perf_counter() - t0)
        _record(
            "campaign/classify",
            injections=len(faults),
            wall_s=round(min(legs), 4),
            classify_injections_per_sec=round(len(faults) / min(legs), 1),
            masked=outcomes.count(FaultOutcome.MASKED),
            detected=outcomes.count(FaultOutcome.DETECTED),
            sdc=outcomes.count(FaultOutcome.SDC),
        )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert FaultOutcome.SDC not in outcomes  # SRRS: no silent corruption


def _default_policy_plan(total: int, *, seed: int = 11) -> FaultPlanSpec:
    """The rare-SDC population: 90% CCF / 5% permanent SM / 5% SEU.

    Under the ``default`` policy only permanent SM defects produce
    silent corruptions, so the SDC rate is a rare event (~2%) and the
    uniform census needs tens of thousands of injections to pin it down.
    """
    ccf = total * 90 // 100
    perm = total * 5 // 100
    seu = total - ccf - perm
    return FaultPlanSpec(transient_ccf=ccf, permanent_sm=perm, seu=seu,
                         seed=seed)


def test_campaign_sampling_efficiency(benchmark):
    """BENCH scenario ``campaign/sampling_efficiency``: the acceptance
    criterion of the statistics layer — a stratified campaign that
    oversamples the rare permanent-SM stratum reaches a ±10% relative
    CI half-width on the SDC rate with >= 10x fewer injections than the
    uniform census, while staying bit-deterministic and reweighting the
    estimate back to the nominal fault mix.
    """
    target = 0.10
    run_spec = RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                       policy="default")

    def run():
        # uniform baseline: double the census until the CI target is met
        t0 = time.perf_counter()
        uniform_report = None
        uniform_est = None
        uniform_n = None
        for total in (2_000, 4_000, 8_000, 16_000, 32_000, 64_000):
            uniform_report = run_campaign(
                CampaignSpec(run=run_spec,
                             faults=_default_policy_plan(total),
                             shards=8),
                workers=4,
            )
            uniform_est = uniform_report.rate_interval("sdc")
            if uniform_est.relative_half_width <= target:
                uniform_n = total
                break
        uniform_s = time.perf_counter() - t0
        assert uniform_n is not None

        results = {}
        for method in ("stratified", "importance"):
            t0 = time.perf_counter()
            spec = CampaignSpec(
                run=run_spec,
                faults=_default_policy_plan(64_000),
                sampling=SamplingSpec(method=method, transient_ccf=1,
                                      permanent_sm=8, seu=1),
                repeat=RepeatSpec(metric="sdc",
                                  relative_half_width=target,
                                  batch=500, max_total=64_000),
            )
            result = repeat_campaign(spec, workers=4).check()
            results[method] = (result, time.perf_counter() - t0)

        stratified, stratified_s = results["stratified"]
        importance, importance_s = results["importance"]
        gain = uniform_n / stratified.total
        assert gain >= 10.0, (
            f"stratified sampling must beat the uniform census 10x: "
            f"{uniform_n} vs {stratified.total} injections ({gain:.1f}x)"
        )
        assert importance.total < uniform_n

        # the reweighted estimates and the census measure the same rate
        assert abs(stratified.estimate.rate - uniform_est.rate) < 0.01

        _record(
            "campaign/sampling_efficiency",
            target_relative_half_width=target,
            uniform_injections=uniform_n,
            uniform_relative_half_width=round(
                uniform_est.relative_half_width, 4),
            uniform_sdc_events=uniform_report.sdc,
            uniform_sdc_trials=uniform_report.total,
            uniform_s=round(uniform_s, 3),
            stratified_injections=stratified.total,
            stratified_batches=stratified.batches,
            stratified_relative_half_width=round(
                stratified.estimate.relative_half_width, 4),
            stratified_sdc_rate=round(stratified.estimate.rate, 5),
            stratified_sdc_events=stratified.report.sdc,
            stratified_sdc_trials=stratified.report.total,
            stratified_s=round(stratified_s, 3),
            importance_injections=importance.total,
            importance_relative_half_width=round(
                importance.estimate.relative_half_width, 4),
            importance_sdc_events=importance.report.sdc,
            importance_sdc_trials=importance.report.total,
            importance_s=round(importance_s, 3),
            efficiency_gain_stratified=round(gain, 1),
            efficiency_gain_importance=round(
                uniform_n / importance.total, 1),
            stratified_digest=stratified.report.digest(),
        )
        return stratified

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.converged
    assert result.estimate.relative_half_width <= target


#: Fresh interpreters per command in the CLI leg (median wall).
CLI_REPEATS = 7

#: ``python -m repro ARGV`` that reports the ``repro`` modules it loaded.
_MODULE_PROBE = """
import runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__")
finally:
    sys.stderr.write("repro-modules %d\\n" % sum(
        m == "repro" or m.startswith("repro.") for m in sys.modules))
"""


def _cli(argv, *, code=None) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` (or ``python -c CODE ARGV``) in a fresh
    interpreter that neither reads nor writes ``repro`` bytecode caches,
    as every command runs when caches are off."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(REPO_ROOT / "src"))
    head = ["-c", code] if code is not None else ["-m", "repro"]
    return subprocess.run([sys.executable, *head, *map(str, argv)],
                          env=env, capture_output=True, text=True,
                          check=True)


def test_campaign_cli_cold_start(benchmark, tmp_path):
    """BENCH scenario ``campaign/cli``: the campaign commands end to end.

    ``campaign run`` of a one-injection spec (store creation, baseline
    simulation, report), ``campaign status`` and ``campaign report
    --json`` on its store, each timed over :data:`CLI_REPEATS`
    interleaved fresh interpreters (median), next to a bare interpreter
    start.  ``*_modules`` counts the ``repro`` modules a command loads:
    a pure function of the code, so the gate holds it exactly.
    """
    spec = tmp_path / "spec.json"
    spec.write_text(CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=1, permanent_sm=0, seu=0),
    ).to_json())
    store = tmp_path / "store"
    commands = {
        "run": ["campaign", "run", "--spec", spec, "--dir", store],
        "status": ["campaign", "status", "--dir", store],
        "report": ["campaign", "report", "--dir", store, "--json"],
    }

    def timed(argv, code=None) -> float:
        t0 = time.perf_counter()
        _cli(argv, code=code)
        return time.perf_counter() - t0

    def run():
        walls = {name: [] for name in ["python", *commands]}
        for _ in range(CLI_REPEATS):
            walls["python"].append(timed([], code="pass"))
            for name, argv in commands.items():
                if name == "run":
                    shutil.rmtree(store, ignore_errors=True)
                walls[name].append(timed(argv))
        modules = {}
        for name, argv in commands.items():
            err = _cli(argv, code=_MODULE_PROBE).stderr.split()
            modules[name] = int(err[err.index("repro-modules") + 1])
        _record(
            "campaign/cli",
            repeats=CLI_REPEATS,
            python_start_s=round(statistics.median(walls["python"]), 4),
            **{f"cli_{name}_s": round(statistics.median(walls[name]), 4)
               for name in commands},
            **{f"cli_{name}_modules": modules[name] for name in commands},
        )
        return modules

    modules = benchmark.pedantic(run, rounds=1, iterations=1)
    # the read side loads a fraction of what executing a campaign needs
    assert modules["report"] < modules["run"]
    assert (store / "campaign.json").is_file()
