"""The read side of a campaign: plan, persisted records, status, fold.

Everything here is a pure function of a
:class:`~repro.api.campaign.CampaignSpec` and its
:class:`~repro.campaigns.store.CampaignStore`: the shard plan, the
records validated against it, the progress snapshot and the fold of
shard records into one aggregate
:class:`~repro.faults.report.CampaignReport` (for a repeat spec, of its
stopping prefix: :class:`PrefixFold`).  ``campaign status`` and
``campaign report`` run on this module alone, so it loads no simulator,
fault injector, execution core or telemetry session
(``docs/ARCHITECTURE.md``, "Import rule"); :mod:`repro.campaigns.runner`
executes shards and re-exports these names.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api.campaign import CampaignSpec
from repro.campaigns.sharding import Shard, plan_shards
from repro.campaigns.store import CampaignStore, ShardRecord
from repro.errors import CampaignError, StatsError
from repro.faults.report import CampaignReport, SamplingMetadata, sampling_metadata

if TYPE_CHECKING:
    from repro.stats.intervals import RateEstimate
    from repro.stats.repeater import RepeatResult

__all__ = [
    "CampaignStatus",
    "campaign_plan",
    "campaign_status",
    "fold_report",
    "spec_sampling_meta",
    "validated_records",
]


# ----------------------------------------------------------------------
# aggregate fold
# ----------------------------------------------------------------------
def spec_sampling_meta(spec: CampaignSpec) -> Optional[SamplingMetadata]:
    """The spec's report-level sampling block, ``None`` for legacy specs."""
    if spec.sampling is None:
        return None
    return sampling_metadata(spec.faults, spec.sampling)


def fold_report(records: Iterable[ShardRecord], *,
                sampling: Optional[SamplingMetadata] = None
                ) -> CampaignReport:
    """Fold shard records (any order) into one aggregate report.

    Records are folded in shard-index order, so the bounded
    ``sdc_samples`` list of the aggregate equals the first
    :data:`~repro.faults.report.SDC_SAMPLE_LIMIT` SDC labels in fault-
    index order — independent of completion order, worker count or shard
    boundaries.

    Args:
        records: completed shard records (any order, any subset).
        sampling: sampling design
            (:func:`~repro.faults.report.sampling_metadata`) the shards
            were drawn under; ``None`` for the legacy uniform
            population.  When set, the aggregate reweights its rate
            estimates and emits the versioned v2 report keys.

    Raises:
        CampaignError: on an empty record set or disagreeing policies.
    """
    report = None
    for record in sorted(records, key=lambda r: r.shard):
        report = _merged(report, record, sampling)
    if report is None:
        raise CampaignError("no completed shards to fold into a report")
    return report


def _merged(report: Optional[CampaignReport], record: ShardRecord,
            sampling: Optional[SamplingMetadata]) -> CampaignReport:
    """Merge ``record`` into ``report`` (a new one for the first record)."""
    if report is None:
        report = CampaignReport(policy=record.policy)
    elif record.policy != report.policy:
        raise CampaignError(
            "shards disagree on the attacked policy: "
            f"{sorted({record.policy, report.policy})}"
        )
    report.merge_counts(record.counts, sdc_samples=record.sdc_samples,
                        sampling=sampling)
    return report


class PrefixFold:
    """A repeat-until-confidence spec's result: its stopping prefix.

    :meth:`advance` folds the contiguous shard records from shard 0 up
    to the first prefix whose interval meets the target — a pure
    function of the data, never of scheduling or of shards a pool
    persisted past it.  The runner, ``campaign status`` and ``campaign
    report`` all settle here.

    Attributes:
        report: the prefix's fold (``None`` before shard 0 is in).
        history: one interval per evaluation point, in prefix order.
        folded / stopped: prefix length; whether the rule has fired.
    """

    def __init__(self, spec: CampaignSpec, shards: int) -> None:
        self._repeat = spec.repeat
        self._sampling = spec_sampling_meta(spec)
        self._shards = shards
        self._stats_error: Optional[StatsError] = None
        self.report: Optional[CampaignReport] = None
        self.history: List[RateEstimate] = []
        self.folded = 0
        self.stopped = False

    @property
    def settled(self) -> bool:
        """Whether the rule has fired or the whole budget is folded."""
        return self.stopped or self.folded == self._shards

    def advance(self, records: Mapping[int, ShardRecord]) -> bool:
        """Fold the records that extend the prefix; ``settled`` after."""
        # the stopping rule's statistics load for repeat specs only
        from repro.stats.repeater import target_met

        repeat = self._repeat
        while not self.settled and self.folded in records:
            self.report = _merged(self.report, records[self.folded],
                                  self._sampling)
            self.folded += 1
            try:
                estimate = self.report.rate_interval(
                    repeat.metric, confidence=repeat.confidence,
                    method=repeat.interval,
                )
            except StatsError as exc:
                # A partial fold can miss a stratum entirely; the target
                # is simply not met yet.  Pure function of the prefix,
                # so every worker/resume history skips the same points.
                self._stats_error = exc
                continue
            self.history.append(estimate)
            self.stopped = target_met(
                estimate, relative_half_width=repeat.relative_half_width,
                half_width=repeat.half_width)
        return self.settled

    def result(self) -> RepeatResult:
        """The repeater's result over the prefix folded so far.

        Raises:
            StatsError: when no prefix yields a well-defined estimate
                (e.g. a sampled stratum never drawn).
        """
        from repro.stats.repeater import STOP_BUDGET, STOP_TARGET, RepeatResult

        repeat = self._repeat
        if not self.history:
            raise StatsError(
                f"no prefix of the {repeat.max_total}-injection budget "
                f"yields a well-defined {repeat.metric!r} estimate"
                + (f": {self._stats_error}" if self._stats_error else "")
            )
        estimate = self.history[-1]
        error = None
        if not self.stopped:
            target = (f"relative half-width <= {repeat.relative_half_width}"
                      if repeat.relative_half_width is not None
                      else f"half-width <= {repeat.half_width}")
            error = (f"budget of {repeat.max_total} injections exhausted "
                     f"with the {repeat.metric!r} interval at "
                     f"{estimate.describe()} — target {target} not met")
        return RepeatResult(
            metric=repeat.metric, converged=self.stopped,
            stop_reason=STOP_TARGET if self.stopped else STOP_BUDGET,
            batches=self.folded, total=self.report.total, estimate=estimate,
            report=self.report, history=tuple(self.history), error=error)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def campaign_plan(spec: CampaignSpec) -> Tuple[Shard, ...]:
    """The spec's shard plan — the one every runner entry point uses.

    A fixed-size campaign shards by the spec's ``shards`` /
    ``shard_size`` knobs; a repeat-until-confidence campaign spans its
    whole ``repeat.max_total`` budget in ``repeat.batch``-sized shards,
    so the plan — and therefore every persisted shard's index range —
    is identical whether the repeater stops early or runs to the cap.
    """
    if spec.repeat is not None:
        return plan_shards(spec.total_injections,
                           shard_size=spec.repeat.batch)
    return plan_shards(spec.total_injections, shards=spec.shards,
                       shard_size=spec.shard_size)


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of a (possibly partial) campaign store.

    Attributes:
        spec_hash: config hash of the campaign the store belongs to.
        policy: attacked scheduler label (``None`` before any shard done).
        total_shards / completed_shards: shard-plan progress.
        total_injections / completed_injections: injection progress.
        masked / detected / sdc: outcome counts over *completed* shards.
        complete: whether the store holds the campaign's final result
            (for a repeat spec, counts are its stopping prefix's).
    """

    spec_hash: str
    policy: Optional[str]
    total_shards: int
    completed_shards: int
    total_injections: int
    completed_injections: int
    masked: int
    detected: int
    sdc: int
    complete: bool

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for ``campaign status --json``."""
        return asdict(self)


def campaign_status(store: Union[CampaignStore, str, Path]) -> CampaignStatus:
    """Progress of the campaign persisted in ``store``.

    Raises:
        CampaignError: when the store has no (valid) manifest.
    """
    store = as_store(store)
    spec = store.load_spec()
    plan = campaign_plan(spec)
    records, complete = result_records(spec, plan,
                                       validated_records(store, plan))
    totals: Dict[str, int] = {}
    for record in records.values():
        for key, count in record.outcome_totals().items():
            totals[key] = totals.get(key, 0) + count
    return CampaignStatus(
        spec_hash=spec.config_hash,
        policy=records[min(records)].policy if records else None,
        total_shards=len(plan),
        completed_shards=len(records),
        total_injections=spec.total_injections,
        completed_injections=sum(r.injections for r in records.values()),
        masked=totals.get("masked", 0),
        detected=totals.get("detected", 0),
        sdc=totals.get("sdc", 0),
        complete=complete,
    )


def result_records(spec: CampaignSpec, plan: Tuple[Shard, ...],
                   records: Dict[int, ShardRecord]
                   ) -> Tuple[Dict[int, ShardRecord], bool]:
    """The records a store's result covers, and whether it is final:
    all of a fixed-size spec's, final once the plan is in; a repeat
    spec's stopping prefix (:class:`PrefixFold`), final once settled.
    """
    if spec.repeat is None:
        return records, len(records) == len(plan)
    prefix = PrefixFold(spec, len(plan))
    settled = prefix.advance(records)
    return {index: records[index] for index in range(prefix.folded)}, settled


# ----------------------------------------------------------------------
# persisted records
# ----------------------------------------------------------------------
def as_store(store: Union[CampaignStore, str, Path, None]
              ) -> Optional[CampaignStore]:
    """Coerce a path-ish argument into a :class:`CampaignStore`."""
    if store is None or isinstance(store, CampaignStore):
        return store
    return CampaignStore(store)


def validated_records(store: CampaignStore,
                      plan: Tuple[Shard, ...]) -> Dict[int, ShardRecord]:
    """Load the store's records, verifying each against the shard plan.

    Raises:
        CampaignError: when a persisted record does not correspond to a
            shard of the plan (wrong index or range) — the signature of
            mixing artifact logs across campaigns.
    """
    records = store.load_records()
    for index, record in records.items():
        if index >= len(plan):
            raise CampaignError(
                f"store has shard {index} but the plan only has "
                f"{len(plan)} shards — artifact log does not match the spec"
            )
        shard = plan[index]
        if (record.start, record.stop) != (shard.start, shard.stop):
            raise CampaignError(
                f"shard {index} covers [{record.start}, {record.stop}) in "
                f"the store but [{shard.start}, {shard.stop}) in the plan — "
                "artifact log does not match the spec"
            )
    return records

