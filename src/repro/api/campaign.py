"""Declarative campaign specifications — the input of :mod:`repro.campaigns`.

A :class:`CampaignSpec` pairs the clean redundant run to attack (a
:class:`~repro.api.spec.RunSpec`) with the fault population to inject
(a :class:`~repro.api.spec.FaultPlanSpec`) and the sharding granularity.
Like every spec in :mod:`repro.api` it is a frozen dataclass of plain
values: hashable, picklable (the shard executor ships it to worker
processes) and JSON-round-trippable, with a :attr:`CampaignSpec.config_hash`
recorded in the campaign store as provenance — resuming a store with a
*different* spec is rejected rather than silently mixing populations.

Example::

    from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec

    spec = CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=60_000, permanent_sm=20_000,
                             seu=20_000, seed=7),
        shards=32,
    )
    assert CampaignSpec.from_json(spec.to_json()) == spec
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.api.spec import FaultPlanSpec, RunSpec, SpecCodec
from repro.api.stats import RepeatSpec, SamplingSpec
from repro.errors import ConfigurationError, FaultInjectionError

__all__ = ["CampaignSpec"]

#: Campaign rates a :class:`~repro.api.stats.RepeatSpec` may target.
CAMPAIGN_REPEAT_METRICS = ("masked", "detected", "sdc")


@dataclass(frozen=True)
class CampaignSpec(SpecCodec):
    """One declarative sharded fault-injection campaign.

    Attributes:
        run: the clean redundant run to attack.  Must simulate a redundant
            workload (``effective_copies >= 2``) and must not carry its own
            inline fault plan — the campaign owns the plan.
        faults: the fault population (counts per kind + master seed +
            phase quantum).  ``run.seed``, when set, overrides the plan's
            seed, mirroring :class:`~repro.api.spec.RunSpec` semantics.
        shards: number of contiguous index-space shards (checkpoint
            units).  Mutually exclusive with ``shard_size``; when neither
            is set the runner defaults to 16 shards (clamped to the
            campaign size).
        shard_size: target injections per shard (the runner derives the
            shard count from it).
        sampling: optional v2 sampling design
            (:class:`~repro.api.stats.SamplingSpec`): reallocate the
            injection budget across fault kinds (stratified block layout
            or importance proposal), with estimates reweighted to the
            nominal mix of ``faults``.  ``None`` keeps the bit-stable
            legacy uniform population.
        repeat: optional repeat-until-confidence rule
            (:class:`~repro.api.stats.RepeatSpec`).  Requires
            ``sampling`` (only the v2 layouts are prefix-stable, i.e.
            extendable without changing already-injected faults); the
            rule's ``batch`` becomes the shard size, so ``shards`` /
            ``shard_size`` must stay unset, and ``total_injections``
            becomes the rule's ``max_total`` budget cap.
    """

    run: RunSpec
    faults: FaultPlanSpec = field(default_factory=FaultPlanSpec)
    shards: Optional[int] = None
    shard_size: Optional[int] = None
    # left out of the JSON form while unset, so legacy specs keep their
    # exact historical JSON (and therefore their config_hash)
    sampling: Optional[SamplingSpec] = field(
        default=None, metadata={"omit_none": True})
    repeat: Optional[RepeatSpec] = field(
        default=None, metadata={"omit_none": True})

    def __post_init__(self) -> None:
        if not self.run.simulate:
            raise ConfigurationError(
                "a campaign needs a simulated run (simulate=True) — faults "
                "are injected into the simulated redundant trace"
            )
        if self.run.effective_copies < 2:
            raise ConfigurationError(
                "a campaign needs a redundant run (copies >= 2); "
                f"got {self.run.effective_copies}"
            )
        if self.run.faults is not None:
            raise ConfigurationError(
                "the campaign owns the fault plan: set CampaignSpec.faults, "
                "not RunSpec.faults"
            )
        if self.total_injections < 1:
            raise ConfigurationError(
                "campaign must inject at least one fault"
            )
        if self.shards is not None and self.shard_size is not None:
            raise ConfigurationError(
                "set either shards or shard_size, not both"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        if self.sampling is not None:
            try:
                self.sampling.to_config().validate_support(
                    self.faults.to_config()
                )
            except FaultInjectionError as exc:
                raise ConfigurationError(str(exc)) from None
        if self.repeat is not None:
            if self.sampling is None:
                raise ConfigurationError(
                    "repeat-until-confidence requires a sampling design: "
                    "the legacy (v1) population layout is segmented by "
                    "kind and cannot be extended without changing "
                    "already-injected faults — set CampaignSpec.sampling"
                )
            if self.shards is not None or self.shard_size is not None:
                raise ConfigurationError(
                    "a repeated campaign derives its shard size from "
                    "repeat.batch; leave shards/shard_size unset"
                )
            if self.repeat.metric not in CAMPAIGN_REPEAT_METRICS:
                raise ConfigurationError(
                    f"unknown campaign repeat metric "
                    f"{self.repeat.metric!r}; known: "
                    + ", ".join(CAMPAIGN_REPEAT_METRICS)
                )

    # ------------------------------------------------------------------
    @property
    def total_injections(self) -> int:
        """Campaign size: the number of faults the plan injects.

        A repeated campaign's size is its budget cap
        (``repeat.max_total``) — the shard plan spans the whole budget
        up front, and the repeater stops at the first shard prefix whose
        confidence interval meets the target.
        """
        if self.repeat is not None:
            return self.repeat.max_total
        return self.faults.transient_ccf + self.faults.permanent_sm + self.faults.seu

    @property
    def label(self) -> str:
        """Human-readable identity (the underlying run's label)."""
        return self.run.label
