"""Campaign plans and the aggregate report: the read side of a campaign.

:func:`kind_at` lays the fault kinds out over the index space,
:func:`sampling_metadata` is the report-level block of a v2 sampling
design, and :class:`CampaignReport` folds injection outcome counts into
the aggregate whose digest the determinism contract is stated over.
Folding, reporting and status need only this module, so it imports no
simulator, fault injector or redundancy layer (``docs/ARCHITECTURE.md``,
"Import rule"); :mod:`repro.faults.campaign` re-exports the report names
and adds the :class:`FaultCampaign` that produces the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api.spec import Codec, ReportCodec
from repro.api.stats import SAMPLING_METHODS
from repro.errors import ConfigurationError, FaultInjectionError, StatsError
from repro.faults.outcomes import OUTCOME_KEYS, OUTCOMES_BY_KEY, FaultOutcome

# the rate estimators and the ISO 26262 model load where a report first
# asks for an interval or a metric: folding and serialising a legacy
# (uniform) report needs neither
if TYPE_CHECKING:
    from repro.api.spec import FaultPlanSpec
    from repro.api.stats import SamplingSpec
    from repro.iso26262.metrics import HardwareMetrics
    from repro.stats.intervals import RateEstimate

__all__ = [
    "CampaignReport",
    "SDC_SAMPLE_LIMIT",
    "SamplingMetadata",
    "kind_at",
    "sampling_metadata",
]

#: Fault class name (the ``by_kind`` report keys) -> short fault kind.
CLASS_NAME_KINDS: Dict[str, str] = {
    "TransientCCF": "ccf",
    "PermanentSMFault": "perm",
    "SEUFault": "seu",
}

#: Version tag of the sampling metadata block in report payloads.
SAMPLING_SCHEMA = 2

#: How many SDC fault labels a report retains as diagnostic examples (see
#: :meth:`CampaignReport.merge_counts`).
SDC_SAMPLE_LIMIT = 5


def kind_at(position: int, transient_ccf: int, permanent_sm: int,
            seu: int) -> str:
    """The fault kind at ``position`` of the three weights' kind layout.

    The layout lists the kinds in canonical order, each repeated as
    often as its weight: ``transient_ccf`` CCFs, then ``permanent_sm``
    permanent SM defects, then SEUs.  Every sampler picks a kind through
    it: the v1 population at the fault index itself, the stratified
    design at the index modulo the weight total, and the importance
    design and the stream overlay at one ``rng.randrange(total)`` draw.
    """
    if position < transient_ccf:
        return "ccf"
    if position < transient_ccf + permanent_sm:
        return "perm"
    return "seu"


@dataclass(frozen=True)
class SamplingMetadata(Codec):
    """The report-level block of a v2 sampling design (pure integers).

    Only integer counts are stored; the estimators derive population
    probabilities and importance weights from them at estimation time,
    so report digests never depend on float summation order.

    Attributes:
        schema: :data:`SAMPLING_SCHEMA`.
        method: ``"stratified"`` or ``"importance"``.
        nominal: the plan's fault mix, ``ccf``/``perm``/``seu`` ->
            weight: the population the estimate is about.
        allocation: the design's allocation weights over the same kinds.
    """

    schema: int
    method: str
    nominal: Dict[str, int]
    allocation: Dict[str, int]

    def __post_init__(self) -> None:
        if self.schema != SAMPLING_SCHEMA or self.method not in SAMPLING_METHODS:
            raise ConfigurationError(
                f"SamplingMetadata: unknown design schema {self.schema!r} "
                f"method {self.method!r}; known: schema {SAMPLING_SCHEMA}, "
                f"methods {', '.join(SAMPLING_METHODS)}"
            )
        for name in ("nominal", "allocation"):
            weights = getattr(self, name)
            if (sorted(weights) != sorted(CLASS_NAME_KINDS.values())
                    or min(weights.values()) < 0
                    or not sum(weights.values())):
                raise ConfigurationError(
                    f"SamplingMetadata.{name} must weigh ccf, perm and "
                    f"seu (>= 0, not all 0), got {weights!r}"
                )


def sampling_metadata(plan: FaultPlanSpec,
                      sampling: SamplingSpec) -> SamplingMetadata:
    """The report-level sampling block of ``sampling`` over ``plan``.

    Carried by :attr:`CampaignReport.sampling`.  The design's support
    over ``plan`` is checked where the
    :class:`~repro.api.campaign.CampaignSpec` pairing them is built.
    """
    return SamplingMetadata(
        schema=SAMPLING_SCHEMA,
        method=sampling.method,
        nominal={"ccf": plan.transient_ccf, "perm": plan.permanent_sm,
                 "seu": plan.seu},
        allocation={"ccf": sampling.transient_ccf,
                    "perm": sampling.permanent_sm, "seu": sampling.seu},
    )


def _check_counts(by_kind: Mapping[str, Mapping[str, int]],
                  label: str) -> None:
    """Refuse unknown outcome keys and negative counts.

    Raises:
        FaultInjectionError: naming the offending kind and outcome.
    """
    for kind, outcomes in by_kind.items():
        for key, count in outcomes.items():
            if key not in OUTCOMES_BY_KEY:
                raise FaultInjectionError(
                    f"{label}[{kind!r}]: unknown outcome key {key!r}; "
                    f"known: {', '.join(OUTCOMES_BY_KEY)}"
                )
            if count < 0:
                raise FaultInjectionError(
                    f"{label}[{kind!r}][{key!r}]: negative outcome count "
                    f"{count}"
                )


@dataclass
class CampaignReport(ReportCodec):
    """Aggregated campaign outcome.

    A report holds outcome *counts* only: :meth:`merge_counts` folds in
    the ``fault-kind -> outcome -> count`` tables of classified faults
    (one per campaign shard, see :mod:`repro.campaigns`), and every
    outcome total is read off the :attr:`by_kind` table.

    Its JSON form comes from the spec codec
    (:class:`~repro.api.spec.ReportCodec`): ``policy``, ``by_kind``,
    ``sdc_samples`` and, for a v2 sampled campaign, ``sampling``, plus
    the derived keys ``total``/``masked``/``detected``/``sdc``/
    ``detection_coverage``/``weighted_rates``; a saved report loads
    only in that canonical form.  Two campaigns over the same fault
    population produce *equal* payloads regardless of shard
    boundaries, worker counts or resume history — the object the
    sharded runner's bit-identity guarantee is stated over (see
    ``docs/CAMPAIGNS.md``).  Reports of the legacy uniform population
    emit exactly the historical (v1) eight keys, so their digests are
    bit-identical to earlier releases.

    Attributes:
        policy: scheduler label of the underlying run.
        by_kind: ``fault-kind -> outcome key -> count`` breakdown, keyed
            like the store's shard records (``"masked"``/``"detected"``/
            ``"sdc"``, the :data:`~repro.faults.outcomes.OUTCOME_KEYS`
            values).
        sdc_samples: up to :data:`SDC_SAMPLE_LIMIT` fault labels of silent
            corruptions, kept as diagnostic examples.
        sampling: the v2 sampling design (:func:`sampling_metadata`)
            when the campaign used a v2 sampler, ``None`` for the legacy
            uniform population.  With it set, rate estimates are
            reweighted to the nominal fault mix and the payload gains
            the ``"sampling"``/``"weighted_rates"`` keys.
    """

    policy: str
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)
    sdc_samples: List[str] = field(default_factory=list)
    sampling: Optional[SamplingMetadata] = field(
        default=None, metadata={"omit_none": True})

    derived_keys = ("total", "masked", "detected", "sdc",
                    "detection_coverage", "weighted_rates")
    load_error = FaultInjectionError

    def __post_init__(self) -> None:
        _check_counts(self.by_kind, "CampaignReport.by_kind")

    # ------------------------------------------------------------------
    def merge_counts(self, by_kind: Mapping[str, Mapping[str, int]], *,
                     sdc_samples: Iterable[str] = (),
                     sampling: Optional[SamplingMetadata] = None) -> None:
        """Fold pre-aggregated outcome counts into the report.

        This is the streaming-aggregation entry point of the sharded
        campaign runner: each completed shard contributes only its
        ``fault-kind -> outcome key -> count`` table (plus a bounded
        sample of SDC labels), so aggregating a multi-million-injection
        campaign costs O(shards), not O(injections).

        Args:
            by_kind: outcome counts per fault kind (all counts >= 0).
            sdc_samples: SDC fault labels; retained up to
                :data:`SDC_SAMPLE_LIMIT` across the whole report.
            sampling: sampling design of the contributing counts
                (:func:`sampling_metadata`).  The first merge installs
                it; later merges must agree — per-stratum reweighting is
                only meaningful when every folded shard was drawn under
                the same design.

        Raises:
            FaultInjectionError: on unknown outcome keys, negative
                counts or a disagreeing sampling design.
        """
        # validate everything before mutating anything: a rejected merge
        # must not leave the report holding a half-applied shard
        _check_counts(by_kind, "merged by_kind")
        if sampling is not None:
            if self.sampling is None:
                self.sampling = sampling
            elif self.sampling != sampling:
                raise FaultInjectionError(
                    "cannot fold counts sampled under a different design: "
                    f"report carries {self.sampling!r}, shard carries "
                    f"{sampling!r}"
                )
        for kind, outcomes in by_kind.items():
            bucket = self.by_kind.setdefault(kind, {})
            for key, count in outcomes.items():
                bucket[key] = bucket.get(key, 0) + count
        for label in sdc_samples:
            if len(self.sdc_samples) >= SDC_SAMPLE_LIMIT:
                break
            self.sdc_samples.append(label)

    def count(self, outcome: FaultOutcome) -> int:
        """Total injections with the given outcome."""
        key = OUTCOME_KEYS[outcome]
        return sum(outcomes.get(key, 0) for outcomes in self.by_kind.values())

    @property
    def total(self) -> int:
        """Campaign size (every count in the by-kind table)."""
        return sum(sum(outcomes.values())
                   for outcomes in self.by_kind.values())

    @property
    def masked(self) -> int:
        """Injections that hit no active computation."""
        return self.count(FaultOutcome.MASKED)

    @property
    def detected(self) -> int:
        """Injections caught by the DCLS comparison."""
        return self.count(FaultOutcome.DETECTED)

    @property
    def sdc(self) -> int:
        """Silent data corruptions (the ASIL-D killer)."""
        return self.count(FaultOutcome.SDC)

    @property
    def detection_coverage(self) -> float:
        """Detected / (detected + SDC); 1.0 when nothing was dangerous."""
        dangerous = self.detected + self.sdc
        return 1.0 if dangerous == 0 else self.detected / dangerous

    @property
    def weighted_rates(self) -> Optional[Dict[str, float]]:
        """Outcome rates reweighted to the nominal fault mix (v2 only).

        Floats, but pure functions of the integer counts, so still
        shard-order-independent.  ``None`` without a sampling design,
        and for a partial fold that has not sampled every nominal
        stratum yet — deterministic for a given count table.
        """
        if self.sampling is None or not self.total:
            return None
        try:
            return {metric: self.rate_estimator(metric).rate()
                    for metric in OUTCOMES_BY_KEY}
        except StatsError:
            return None

    def to_dict(self) -> Dict[str, Any]:
        """The codec's plain-data form; a v1 payload has no
        ``weighted_rates`` key."""
        data = super().to_dict()
        if self.sampling is None:
            del data["weighted_rates"]
        return data

    # ------------------------------------------------------------------
    # statistical estimation (repro.stats)
    # ------------------------------------------------------------------
    def rate_rows(self) -> Dict[str, Tuple[int, int]]:
        """``metric -> (events, trials)`` of each outcome over the
        campaign size (the rows ``repro compare`` tests)."""
        return {key: (self.count(outcome), self.total)
                for key, outcome in OUTCOMES_BY_KEY.items()}

    def _strata_counts(self, metric: str) -> Dict[str, Tuple[int, int]]:
        """``kind -> (events, trials)`` over the report's by-kind table."""
        strata: Dict[str, Tuple[int, int]] = {}
        for class_name, outcomes in self.by_kind.items():
            kind = CLASS_NAME_KINDS.get(class_name, class_name)
            events, trials = strata.get(kind, (0, 0))
            strata[kind] = (
                events + outcomes.get(metric, 0),
                trials + sum(outcomes.values()),
            )
        return strata

    def rate_estimator(self, metric: str = "sdc"):
        """The estimator matching this report's sampling design.

        Uniform (legacy) reports get a plain binomial proportion;
        reports carrying v2 :attr:`sampling` metadata get the matching
        stratified or Horvitz–Thompson importance estimator, reweighted
        to the nominal fault mix.  ``metric`` is ``"masked"``,
        ``"detected"`` or ``"sdc"``.

        Raises:
            FaultInjectionError: on an empty report or unknown metric.
            StatsError: when the sampling metadata cannot support an
                unbiased estimate (e.g. a nominal stratum was never
                sampled).
        """
        from repro.stats.estimators import (
            ImportanceRate,
            StratifiedRate,
            UniformRate,
        )

        self._require_injections(f"rate_estimator({metric!r})")
        if metric not in OUTCOMES_BY_KEY:
            raise FaultInjectionError(
                f"unknown campaign metric {metric!r}; expected one of "
                + ", ".join(OUTCOMES_BY_KEY)
            )
        strata = self._strata_counts(metric)
        if self.sampling is None:
            return UniformRate(sum(events for events, _ in strata.values()),
                               self.total, metric=metric)
        nominal = self.sampling.nominal
        allocation = self.sampling.allocation
        nominal_total = sum(nominal.values())
        population = {kind: count / nominal_total
                      for kind, count in nominal.items()}
        if self.sampling.method == "stratified":
            return StratifiedRate(strata, population, metric=metric)
        allocation_total = sum(allocation.values())
        weights = {
            kind: (population[kind]
                   / (allocation[kind] / allocation_total))
            for kind in allocation if allocation[kind] > 0
        }
        return ImportanceRate(strata, weights, metric=metric)

    def rate_interval(self, metric: str = "sdc", *,
                      confidence: float = 0.95, method: str = "auto",
                      resamples: int = 1000, seed: int = 0) -> RateEstimate:
        """Confidence interval on one outcome rate.

        A pure function of the report's integer counts (and, for the
        bootstrap, the explicit ``seed``) — computing it never perturbs
        the report's canonical form or digest.

        Raises:
            FaultInjectionError: on an empty report or unknown metric.
            StatsError: on an unsupported interval method for the
                report's sampling design.
        """
        return self.rate_estimator(metric).interval(
            confidence=confidence, method=method,
            resamples=resamples, seed=seed,
        )

    def _require_injections(self, what: str) -> None:
        """Guard derived statistics against an empty report.

        Raises:
            FaultInjectionError: when no injection has been recorded or
                merged — the derived quantity would silently divide by
                zero (or fabricate a 100% coverage no campaign measured).
        """
        if self.total == 0:
            raise FaultInjectionError(
                f"empty campaign report for policy {self.policy!r}: "
                f"{what} is undefined before any injection is recorded "
                "(run the campaign, or check shard aggregation)"
            )

    def hardware_metrics(self, raw_failure_rate_per_hour: float = 1e-6
                         ) -> HardwareMetrics:
        """Map campaign statistics onto ISO 26262 architectural metrics.

        Raises:
            FaultInjectionError: on an empty report (the Monte-Carlo
                coverage estimate is undefined without injections).
        """
        from repro.iso26262.metrics import coverage_from_campaign

        self._require_injections("hardware_metrics()")
        return coverage_from_campaign(
            total_injections=self.total,
            detected=self.detected,
            masked=self.masked,
            undetected=self.sdc,
            raw_failure_rate_per_hour=raw_failure_rate_per_hour,
        )

    def summary(self) -> str:
        """One-line campaign summary, with an error bar on the SDC rate.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("summary()")
        try:
            tail = f" sdc_rate={self.rate_interval('sdc').describe()}"
        except StatsError:
            # e.g. a partial v2 fold that has not yet sampled every
            # nominal stratum — the point counts are still reportable
            tail = ""
        return (
            f"{self.policy}: n={self.total} masked={self.masked} "
            f"detected={self.detected} SDC={self.sdc} "
            f"coverage={self.detection_coverage:.4f}"
            + tail
        )
