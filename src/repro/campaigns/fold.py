"""The read side of a campaign: plan, persisted records, status, fold.

Everything here is a pure function of a
:class:`~repro.api.campaign.CampaignSpec` and its
:class:`~repro.campaigns.store.CampaignStore`: the shard plan, the
records validated against it, the progress snapshot and the fold of
shard records into one aggregate
:class:`~repro.faults.report.CampaignReport`.  ``campaign status`` and
``campaign report`` run on this module alone, so it loads no simulator,
fault injector, execution core or telemetry session
(``docs/ARCHITECTURE.md``, "Import rule"); :mod:`repro.campaigns.runner`
executes shards and re-exports these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.api.campaign import CampaignSpec
from repro.campaigns.sharding import Shard, plan_shards
from repro.campaigns.store import CampaignStore, ShardRecord
from repro.errors import CampaignError
from repro.faults.report import CampaignReport, SamplingMetadata, sampling_metadata

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
    ordered = sorted(records, key=lambda r: r.shard)
    if not ordered:
        raise CampaignError("no completed shards to fold into a report")
    policies = {r.policy for r in ordered}
    if len(policies) != 1:
        raise CampaignError(
            f"shards disagree on the attacked policy: {sorted(policies)}"
        )
    report = CampaignReport(policy=ordered[0].policy)
    for record in ordered:
        report.merge_counts(record.counts,
                            sdc_samples=record.sdc_samples,
                            sampling=sampling)
    return report


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

    @property
    def complete(self) -> bool:
        """True when every shard of the plan has a persisted record."""
        return self.completed_shards == self.total_shards

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for ``campaign status --json``."""
        return {
            "spec_hash": self.spec_hash,
            "policy": self.policy,
            "total_shards": self.total_shards,
            "completed_shards": self.completed_shards,
            "total_injections": self.total_injections,
            "completed_injections": self.completed_injections,
            "masked": self.masked,
            "detected": self.detected,
            "sdc": self.sdc,
            "complete": self.complete,
        }


def campaign_status(store: Union[CampaignStore, str, Path]) -> CampaignStatus:
    """Progress of the campaign persisted in ``store``.

    Raises:
        CampaignError: when the store has no (valid) manifest.
    """
    store = as_store(store)
    spec = store.load_spec()
    plan = campaign_plan(spec)
    records = validated_records(store, plan)
    totals: Dict[str, int] = {}
    for record in records.values():
        for key, count in record.outcome_totals().items():
            totals[key] = totals.get(key, 0) + count
    policy = None
    if records:
        policy = records[min(records)].policy
    return CampaignStatus(
        spec_hash=spec.config_hash,
        policy=policy,
        total_shards=len(plan),
        completed_shards=len(records),
        total_injections=spec.total_injections,
        completed_injections=sum(r.injections for r in records.values()),
        masked=totals.get("masked", 0),
        detected=totals.get("detected", 0),
        sdc=totals.get("sdc", 0),
    )


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

