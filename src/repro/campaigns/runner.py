"""Sharded campaign execution: process pools, checkpointing, resume.

The runner turns a :class:`~repro.api.campaign.CampaignSpec` into an
aggregate :class:`~repro.faults.report.CampaignReport` by:

1. planning contiguous shards of the fault-index space
   (:func:`repro.campaigns.fold.campaign_plan`);
2. skipping shards already present in the campaign store (resume);
3. simulating the clean baseline once, in this process, then executing
   the remaining shards through the execution core
   (:func:`repro.exec.map_tasks`) in completion order, persisting each
   to the store *as it completes*, so an interrupt loses at most the
   shards still in flight;
4. folding the per-shard outcome tables into one incremental
   :class:`~repro.faults.report.CampaignReport` in shard order
   (:func:`repro.campaigns.fold.fold_report`) — the aggregate is
   O(shards) in memory and never materialises the campaign's
   per-injection records.

A repeat-until-confidence spec runs the same pass and stops consuming
results once its :class:`~repro.campaigns.fold.PrefixFold` settles.

Planning, status and the fold live in :mod:`repro.campaigns.fold`, which
loads none of the execution stack this module imports; the runner
re-exports them.

Every shard regenerates its faults from the campaign's indexed seed
schedule, so the aggregate is bit-identical for any shard plan, worker
count or interrupt/resume history (see ``docs/CAMPAIGNS.md`` for the
contract and its proof obligations).
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

# The simulation stack is imported first, before the spec and store
# layers.  Without bytecode caches every import compiles its source, and
# compiling the largest modules into a still-small heap leaves about
# 1 MB less resident memory in this process — and in every pool worker
# forked from it — than compiling them after the spec layers
# (docs/PERFORMANCE.md, "CLI start-up").
from repro.redundancy.manager import clean_run
from repro.api.campaign import CampaignSpec
from repro.api.spec import FaultPlanSpec, RunSpec
from repro.api.stats import SamplingSpec
from repro.campaigns.fold import (
    CampaignStatus,
    PrefixFold,
    as_store,
    campaign_plan,
    campaign_status,
    fold_report,
    spec_sampling_meta,
    validated_records,
)
from repro.campaigns.sharding import Shard
from repro.campaigns.store import CampaignStore, ShardRecord
from repro.errors import CampaignError
from repro.exec import map_tasks
from repro.faults.campaign import FaultCampaign
from repro.faults.outcomes import OUTCOME_KEYS, FaultOutcome
from repro.faults.report import SDC_SAMPLE_LIMIT, CampaignReport
from repro.obs.session import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.stats.repeater import RepeatResult

__all__ = [
    "CampaignStatus",
    "baseline_campaign",
    "campaign_plan",
    "campaign_status",
    "classify_shard",
    "fold_report",
    "repeat_campaign",
    "resume_campaign",
    "run_campaign",
    "spec_sampling_meta",
    "validated_records",
]

# Per-process memo of clean baseline runs, keyed by (RunSpec.config_hash,
# validate).  The orchestrating process fills it before the pool starts,
# so forked workers inherit the baseline instead of simulating it; a
# worker started by spawning rebuilds it here once and reuses it across
# its shard tasks.  Bounded: distinct baselines per process stay tiny
# (one per campaign), but guard against pathological reuse anyway.
_BASELINE_CACHE: Dict[Tuple[str, bool], FaultCampaign] = {}
_BASELINE_CACHE_LIMIT = 8


def baseline_campaign(run_spec: RunSpec, *,
                      validate: bool = True) -> FaultCampaign:
    """Build (or fetch from the per-process cache) the clean run to attack.

    The spec's :func:`~repro.redundancy.manager.clean_run` seeds a
    :class:`~repro.faults.campaign.FaultCampaign`.

    Raises:
        CampaignError: when the workload resolves to no kernels (nothing
            to inject into).
    """
    key = (run_spec.config_hash, validate)
    cached = _BASELINE_CACHE.get(key)
    if cached is not None:
        return cached
    run = clean_run(run_spec, validate=validate, error=CampaignError)
    campaign = FaultCampaign(run)
    if len(_BASELINE_CACHE) >= _BASELINE_CACHE_LIMIT:
        _BASELINE_CACHE.clear()
    _BASELINE_CACHE[key] = campaign
    return campaign


def _execute_shard(task: Tuple[str, int, int, int, bool],
                   telemetry: Telemetry = NULL_TELEMETRY) -> ShardRecord:
    """Pool task: run one shard to a :class:`ShardRecord`.

    The task is a plain picklable tuple ``(spec_json, shard_index, start,
    stop, validate)``.  The shard samples exactly its slice of the
    indexed fault population, classifies each injection against the
    (cached) clean trace, and aggregates outcome counts — per-injection
    results never leave the worker.  ``telemetry`` receives the shard's
    spans (the caller's session in-process, a worker sidecar in a pool).
    """
    spec_json, shard_index, start, stop, validate = task
    with telemetry.span("shard", shard=shard_index, start=start, stop=stop):
        spec = CampaignSpec.from_json(spec_json)
        cached = (spec.run.config_hash, validate) in _BASELINE_CACHE
        with telemetry.span("baseline", cached=cached):
            campaign = baseline_campaign(spec.run, validate=validate)
        with telemetry.span("classify", injections=stop - start):
            return classify_shard(
                campaign, spec.effective_faults,
                Shard(index=shard_index, start=start, stop=stop),
                sampling=spec.sampling,
            )


def classify_shard(campaign: FaultCampaign, plan: FaultPlanSpec,
                   shard: Shard, *,
                   sampling: Optional[SamplingSpec] = None) -> ShardRecord:
    """Classify one shard of ``plan``'s fault population to its record.

    Fault ``i`` of the shard is ``campaign.fault_at(plan, i,
    sampling=sampling)``; only the outcome counts per fault kind and the
    first :data:`~repro.faults.report.SDC_SAMPLE_LIMIT` SDC labels are
    kept.  Shard workers and :meth:`repro.api.engine.Engine.run` both
    classify through here, so :func:`fold_report` of the records is the
    one campaign report.
    """
    counts: Dict[str, Dict[str, int]] = {}
    sdc_samples: List[str] = []
    for index in range(shard.start, shard.stop):
        fault = campaign.fault_at(plan, index, sampling=sampling)
        result = campaign.classify(fault)
        bucket = counts.setdefault(type(fault).__name__, {})
        key = OUTCOME_KEYS[result.outcome]
        bucket[key] = bucket.get(key, 0) + 1
        if (result.outcome is FaultOutcome.SDC
                and len(sdc_samples) < SDC_SAMPLE_LIMIT):
            sdc_samples.append(fault.describe())
    return ShardRecord(
        shard=shard.index,
        start=shard.start,
        stop=shard.stop,
        policy=campaign.policy,
        counts=counts,
        sdc_samples=tuple(sdc_samples),
    )


def run_campaign(spec: CampaignSpec, *,
                 store: Union[CampaignStore, str, Path, None] = None,
                 workers: int = 1,
                 max_shards: Optional[int] = None,
                 validate: bool = True,
                 telemetry: Optional[Telemetry] = None) -> CampaignReport:
    """Run (or continue) a sharded campaign and fold its aggregate report.

    Args:
        spec: the declarative campaign.
        store: campaign directory (or :class:`CampaignStore`) for
            checkpoint/resume; ``None`` runs fully in memory.  An existing
            store must have been created for this exact spec; its finished
            shards are skipped.
        workers: process count for pending shards; ``1`` executes
            in-process.
        max_shards: execute at most this many *pending* shards (the
            lowest-indexed ones), then return the partial fold — a
            checkpointed budget knob, also used by tests and benchmarks to
            interrupt a campaign deterministically.
        validate: forward the simulator's trace-validation switch.
        telemetry: optional :class:`~repro.obs.session.Telemetry`
            session observing the run (lifecycle events, spans, the
            progress ticker).  Strictly digest-neutral: the report is
            bit-identical with telemetry on, off or interrupted.

    Returns:
        The aggregate :class:`~repro.faults.campaign.CampaignReport` over
        every *completed* shard.  Unless ``max_shards`` truncated the run,
        that is the full campaign — bit-identical (``report.to_dict()``)
        for any ``shards``/``workers``/resume history.

    Raises:
        CampaignError: on store/spec mismatches, corrupt artifacts, an
            invalid worker count, or a repeat-until-confidence spec
            (those run via :func:`repeat_campaign`).
    """
    if spec.repeat is not None:
        raise CampaignError(
            "this spec carries a repeat-until-confidence rule — run it "
            "with repeat_campaign(), which owns the stopping decision"
        )
    return _run_spec(spec, store=store, workers=workers,
                     max_shards=max_shards, validate=validate,
                     telemetry=telemetry)


def _run_spec(spec: CampaignSpec, *,
              store: Union[CampaignStore, str, Path, None] = None,
              workers: int = 1,
              max_shards: Optional[int] = None,
              validate: bool = True,
              telemetry: Optional[Telemetry] = None
              ) -> Union[CampaignReport, RepeatResult]:
    """The one campaign pass behind every entry point, for either spec kind.

    Runs the pending shards in one :func:`repro.exec.map_tasks` pass,
    persisting each before its telemetry (which never feeds back into
    the loop or the fold).  A repeat spec closes the iterator, which
    cancels the queued shards, once its
    :class:`~repro.campaigns.fold.PrefixFold` settles.
    """
    if workers < 1:
        raise CampaignError("workers must be >= 1")
    if spec.repeat is not None and max_shards is not None:
        raise CampaignError(
            "max_shards does not apply to a repeat-until-confidence "
            "campaign — the stopping rule decides when to stop"
        )
    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    store = as_store(store)
    done: Dict[int, ShardRecord] = {}
    with tm.span("plan"):
        plan = campaign_plan(spec)
        if store is not None:
            store.initialise(spec)
            done = validated_records(store, plan)

    prefix = None if spec.repeat is None else PrefixFold(spec, len(plan))
    pending = [] if prefix is not None and prefix.advance(done) else [
        shard for shard in plan if shard.index not in done]
    if max_shards is not None:
        pending = pending[:max(0, max_shards)]

    tm.emit("run_start", kind="campaign", label=spec.label,
            spec_hash=spec.config_hash, shards=len(plan),
            pending=len(pending), total_injections=spec.total_injections,
            resumed_shards=len(done))
    if tm.enabled and plan:
        tm.metrics.set_gauge("resume_hit_rate", len(done) / len(plan))
        if done:
            # shards below the completion horizon were dispatched by an
            # earlier, interrupted session and are going out again
            horizon = max(done)
            for shard in pending:
                if shard.index < horizon:
                    tm.emit("retry", shard=shard.index,
                            reason="re-dispatched after interrupt")

    if pending:
        # Simulate the clean baseline here, before any shard runs: a
        # forked pool then inherits it, and every module it needed,
        # instead of each worker importing and simulating; workers
        # started by spawning rebuild it through _BASELINE_CACHE, so
        # results never depend on which happened.
        cached = (spec.run.config_hash, validate) in _BASELINE_CACHE
        with tm.span("baseline", cached=cached):
            baseline_campaign(spec.run, validate=validate)
        spec_json = spec.to_json()
        records = map_tasks(
            _execute_shard,
            [(spec_json, shard.index, shard.start, shard.stop, validate)
             for shard in pending],
            workers=workers,
            # zero-padded, so key order (the sidecar merge order) is shard order
            keys=[f"shard-{shard.index:05d}" for shard in pending],
            telemetry=tm, ordered=False)
        with tm.span("execute", shards=len(pending), workers=workers):
            for shard in pending:
                tm.emit("shard_start", shard=shard.index, start=shard.start,
                        stop=shard.stop)
            with closing(records):
                for record in records:
                    if store is not None:
                        store.append(record)
                    done[record.shard] = record
                    if tm.enabled:
                        _observe(tm, record, store, len(done), len(plan))
                    if prefix is not None and prefix.advance(done):
                        break

    with tm.span("fold", shards=len(done)):
        if prefix is None:
            result = report = fold_report(
                done.values(), sampling=spec_sampling_meta(spec))
        else:
            result = prefix.result()
            report = result.report
    if tm.enabled:
        # a repeat run's work ends at the shards it consumed: the queued
        # shards past its stopping prefix were cancelled
        total = len(plan) if prefix is None else len(done)
        tm.metrics.set_gauge("pending_shards", float(total - len(done)))
        tm.beat("campaign", len(done), total,
                rate_counter="injections", unit="inj/s", force=True)
    tm.emit("run_end", kind="campaign", digest=report.digest(),
            total=report.total, masked=report.masked,
            detected=report.detected, sdc=report.sdc)
    return result


def _observe(tm: Telemetry, record: ShardRecord,
             store: Optional[CampaignStore], completed: int,
             total_shards: int) -> None:
    """Emit one persisted shard's checkpoint, metrics and progress."""
    if store is not None:
        tm.emit("checkpoint", shard=record.shard,
                path=store.shards_path.as_posix())
    totals = record.outcome_totals()
    tm.metrics.add("injections", record.injections)
    tm.metrics.add("shards", 1)
    tm.metrics.set_gauge("pending_shards", float(total_shards - completed))
    tm.metrics.observe("shard_injections", record.injections)
    tm.emit("shard_end", shard=record.shard, start=record.start,
            stop=record.stop, injections=record.injections,
            masked=totals.get("masked", 0),
            detected=totals.get("detected", 0),
            sdc=totals.get("sdc", 0))
    tm.beat("campaign", completed, total_shards,
            rate_counter="injections", unit="inj/s")


def resume_campaign(store: Union[CampaignStore, str, Path], *,
                    workers: int = 1,
                    max_shards: Optional[int] = None,
                    validate: bool = True,
                    telemetry: Optional[Telemetry] = None
                    ) -> Union[CampaignReport, RepeatResult]:
    """Continue a persisted campaign from its manifest alone.

    Loads the :class:`~repro.api.campaign.CampaignSpec` from the store
    and runs it as :func:`run_campaign` (fixed-size specs) or
    :func:`repeat_campaign` (repeat-until-confidence specs) would.

    Raises:
        CampaignError: when the store has no (valid) manifest, or when
            ``max_shards`` is combined with a repeat spec (the repeater
            owns the stopping decision).
    """
    store = as_store(store)
    return _run_spec(store.load_spec(), store=store, workers=workers,
                     max_shards=max_shards, validate=validate,
                     telemetry=telemetry)


def repeat_campaign(spec: CampaignSpec, *,
                    store: Union[CampaignStore, str, Path, None] = None,
                    workers: int = 1,
                    validate: bool = True,
                    telemetry: Optional[Telemetry] = None) -> RepeatResult:
    """Extend a campaign batch-by-batch until its CI target is met.

    The SHARP-style repeater: the shard plan spans the whole
    ``repeat.max_total`` budget in ``repeat.batch``-sized shards, and
    the result is the **first shard prefix** whose confidence interval
    on ``repeat.metric`` satisfies the target
    (:class:`~repro.campaigns.fold.PrefixFold`).  Because every shard
    regenerates its faults from the indexed seed schedule and the stop
    point is a pure function of the folded data prefix — never of
    scheduling — the returned aggregate is bit-identical for any worker
    count or kill/resume history.  A pool may finish shards past the
    stop point before the run closes it; they stay checkpointed in the
    store, and the runner, ``campaign status`` and ``campaign report``
    all exclude them.

    Args:
        spec: a campaign spec with both ``sampling`` and ``repeat`` set.
        store: checkpoint/resume directory, as in :func:`run_campaign`.
        workers: process count for the pending shards.
        validate: forward the simulator's trace-validation switch.
        telemetry: optional session, as in :func:`run_campaign`.

    Returns:
        A :class:`~repro.stats.repeater.RepeatResult`.  ``converged`` is
        ``False`` when the budget cap was exhausted first — call
        :meth:`~repro.stats.repeater.RepeatResult.check` to raise that
        as a typed :class:`~repro.errors.RepeatBudgetError`.

    Raises:
        CampaignError: when the spec has no repeat rule, on store/spec
            mismatches, or an invalid worker count.
        StatsError: when no prefix of the budget yields a well-defined
            estimate (e.g. a sampled stratum never drawn).
    """
    if spec.repeat is None:
        raise CampaignError(
            "repeat_campaign needs a spec with a repeat rule — use "
            "run_campaign for fixed-size campaigns"
        )
    return _run_spec(spec, store=store, workers=workers, validate=validate,
                     telemetry=telemetry)
