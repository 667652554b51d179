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
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import FaultInjectionError, SafetyViolation, StatsError
from repro.faults.outcomes import FaultOutcome
from repro.journal import payload_digest

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


def sampling_metadata(plan: FaultPlanSpec,
                      sampling: SamplingSpec) -> Dict[str, object]:
    """The report-level sampling block (pure integers, digest-safe).

    Carried by :attr:`CampaignReport.sampling` and emitted under the
    versioned ``"sampling"`` key of :meth:`CampaignReport.to_dict`.
    Only integer counts are stored; the estimators derive population
    probabilities and importance weights from them at estimation time,
    so report digests never depend on float summation order.  The
    design's support over ``plan`` is checked where the
    :class:`~repro.api.campaign.CampaignSpec` pairing them is built.
    """
    return {
        "schema": SAMPLING_SCHEMA,
        "method": sampling.method,
        "nominal": {
            "ccf": plan.transient_ccf,
            "perm": plan.permanent_sm,
            "seu": plan.seu,
        },
        "allocation": {
            "ccf": sampling.transient_ccf,
            "perm": sampling.permanent_sm,
            "seu": sampling.seu,
        },
    }


@dataclass
class CampaignReport:
    """Aggregated campaign outcome.

    A report holds outcome *counts* only: :meth:`merge_counts` folds in
    the ``fault-kind -> outcome -> count`` tables of classified faults
    (one per campaign shard, see :mod:`repro.campaigns`), and every
    outcome total is read off the :attr:`by_kind` table.

    Attributes:
        policy: scheduler label of the underlying run.
        by_kind: ``fault-kind -> outcome -> count`` breakdown.
        sdc_samples: up to :data:`SDC_SAMPLE_LIMIT` fault labels of silent
            corruptions, kept as diagnostic examples.
        sampling: the versioned sampling-metadata block
            (:func:`sampling_metadata`) when the campaign used a v2
            sampler, ``None`` for the legacy uniform population.  With
            it set, rate estimates are reweighted to the nominal fault
            mix and :meth:`to_dict` gains the ``"sampling"`` /
            ``"weighted_rates"`` keys (v1 payloads are bit-unchanged).
    """

    policy: str
    by_kind: Dict[str, Dict[FaultOutcome, int]] = field(default_factory=dict)
    sdc_samples: List[str] = field(default_factory=list)
    sampling: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    def merge_counts(self, by_kind: Mapping[str, Mapping[FaultOutcome, int]],
                     *, sdc_samples: Iterable[str] = (),
                     sampling: Optional[Mapping[str, object]] = None) -> None:
        """Fold pre-aggregated outcome counts into the report.

        This is the streaming-aggregation entry point of the sharded
        campaign runner: each completed shard contributes only its
        ``fault-kind -> outcome -> count`` table (plus a bounded sample of
        SDC labels), so aggregating a multi-million-injection campaign
        costs O(shards), not O(injections).

        Args:
            by_kind: outcome counts per fault kind (all counts >= 0).
            sdc_samples: SDC fault labels; retained up to
                :data:`SDC_SAMPLE_LIMIT` across the whole report.
            sampling: sampling-metadata block of the contributing counts
                (:func:`sampling_metadata`).  The first merge installs
                it; later merges must agree — per-stratum reweighting is
                only meaningful when every folded shard was drawn under
                the same design.

        Raises:
            FaultInjectionError: on negative counts or disagreeing
                sampling metadata.
        """
        # validate everything before mutating anything: a rejected merge
        # must not leave the report holding a half-applied shard
        for kind, outcomes in by_kind.items():
            for outcome, count in outcomes.items():
                if count < 0:
                    raise FaultInjectionError(
                        f"negative outcome count for {kind}/{outcome}"
                    )
        if sampling is not None:
            incoming = dict(sampling)
            if self.sampling is None:
                self.sampling = incoming
            elif self.sampling != incoming:
                raise FaultInjectionError(
                    "cannot fold counts sampled under a different design: "
                    f"report carries {self.sampling!r}, shard carries "
                    f"{incoming!r}"
                )
        for kind, outcomes in by_kind.items():
            bucket = self.by_kind.setdefault(kind, {})
            for outcome, count in outcomes.items():
                bucket[outcome] = bucket.get(outcome, 0) + count
        for label in sdc_samples:
            if len(self.sdc_samples) >= SDC_SAMPLE_LIMIT:
                break
            self.sdc_samples.append(label)

    def count(self, outcome: FaultOutcome) -> int:
        """Total injections with the given outcome."""
        return sum(outcomes.get(outcome, 0)
                   for outcomes in self.by_kind.values())

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

    # ------------------------------------------------------------------
    # statistical estimation (repro.stats)
    # ------------------------------------------------------------------
    def _strata_counts(self, outcome: FaultOutcome) -> Dict[str, Tuple[int, int]]:
        """``kind -> (events, trials)`` over the report's by-kind table."""
        strata: Dict[str, Tuple[int, int]] = {}
        for class_name, outcomes in self.by_kind.items():
            kind = CLASS_NAME_KINDS.get(class_name, class_name)
            events, trials = strata.get(kind, (0, 0))
            strata[kind] = (
                events + outcomes.get(outcome, 0),
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
        try:
            outcome = FaultOutcome[metric.upper()]
        except KeyError:
            raise FaultInjectionError(
                f"unknown campaign metric {metric!r}; expected one of "
                + ", ".join(o.name.lower() for o in FaultOutcome)
            ) from None
        if self.sampling is None:
            return UniformRate(self.count(outcome), self.total,
                               metric=metric)
        strata = self._strata_counts(outcome)
        nominal = {str(k): int(v)
                   for k, v in dict(self.sampling["nominal"]).items()}
        allocation = {str(k): int(v)
                      for k, v in dict(self.sampling["allocation"]).items()}
        nominal_total = sum(nominal.values())
        population = {kind: count / nominal_total
                      for kind, count in nominal.items()}
        if self.sampling["method"] == "stratified":
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

    def coverage_interval(self, *, confidence: float = 0.95,
                          method: str = "auto", resamples: int = 1000,
                          seed: int = 0) -> RateEstimate:
        """Confidence interval on the detection coverage.

        Coverage is the conditional proportion detected / (detected +
        SDC), a plain binomial in the dangerous-outcome subsample, so it
        gets the uniform (Wilson-capable) treatment under every sampling
        design.

        Raises:
            FaultInjectionError: when the report has no dangerous
                outcomes (the conditional rate is undefined).
        """
        dangerous = self.detected + self.sdc
        if dangerous == 0:
            raise FaultInjectionError(
                f"campaign report for policy {self.policy!r} has no "
                "dangerous outcomes: the coverage interval is undefined"
            )
        from repro.stats.estimators import UniformRate

        return UniformRate(self.detected, dangerous,
                           metric="coverage").interval(
            confidence=confidence, method=method,
            resamples=resamples, seed=seed,
        )

    def metric_intervals(self, *, confidence: float = 0.95,
                         method: str = "auto", resamples: int = 1000,
                         seed: int = 0) -> Dict[str, RateEstimate]:
        """Intervals on every campaign rate, keyed by metric name.

        Covers the three outcome rates plus ``"coverage"`` when the
        report saw any dangerous outcome.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("metric_intervals()")
        intervals = {
            metric: self.rate_interval(metric, confidence=confidence,
                                       method=method, resamples=resamples,
                                       seed=seed)
            for metric in ("masked", "detected", "sdc")
        }
        if self.detected + self.sdc > 0:
            intervals["coverage"] = self.coverage_interval(
                confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        return intervals

    def assert_no_sdc(self) -> None:
        """Raise when any injection escaped detection.

        Raises:
            SafetyViolation: naming up to :data:`SDC_SAMPLE_LIMIT`
                offending injections (:attr:`sdc_samples`).
        """
        if self.sdc:
            sample = "; ".join(self.sdc_samples)
            raise SafetyViolation(
                f"{self.policy}: {self.sdc} silent corruption(s) "
                f"escaped the DCLS comparison, e.g. {sample}"
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

    def hardware_metrics_intervals(self, *, confidence: float = 0.95,
                                   method: str = "auto",
                                   resamples: int = 1000,
                                   seed: int = 0) -> Dict[str, RateEstimate]:
        """Error bars on the rates behind :meth:`hardware_metrics`.

        ``"residual"`` is the SDC rate (the residual-fault fraction that
        scales PMHF) and ``"coverage"`` the detection coverage (LFM), so
        the ISO 26262 architectural metrics inherit these intervals
        directly.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("hardware_metrics_intervals()")
        intervals = {
            "residual": self.rate_interval(
                "sdc", confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        }
        if self.detected + self.sdc > 0:
            intervals["coverage"] = self.coverage_interval(
                confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        return intervals

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

    # ------------------------------------------------------------------
    # canonical plain-data form (bit-identity comparisons, CLI --json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-data form of the aggregate outcome.

        Two campaigns over the same fault population produce *equal*
        dictionaries regardless of shard boundaries, worker counts or
        resume history — this is the object the sharded runner's
        bit-identity guarantee is stated over (see ``docs/CAMPAIGNS.md``).
        Per-injection records are deliberately excluded.

        Versioning: reports of the legacy uniform population emit
        exactly the historical (v1) key set, so their digests are
        bit-identical to earlier releases.  Only reports carrying v2
        :attr:`sampling` metadata add the ``"sampling"`` block and the
        reweighted ``"weighted_rates"`` — floats, but pure functions of
        the integer counts, so still shard-order-independent.
        """
        data: Dict[str, object] = {
            "policy": self.policy,
            "total": self.total,
            "masked": self.masked,
            "detected": self.detected,
            "sdc": self.sdc,
            "detection_coverage": self.detection_coverage,
            "by_kind": {
                kind: {
                    outcome.name.lower(): count
                    for outcome, count in sorted(
                        outcomes.items(), key=lambda kv: kv[0].name
                    )
                }
                for kind, outcomes in sorted(self.by_kind.items())
            },
            "sdc_samples": list(self.sdc_samples),
        }
        if self.sampling is not None:
            data["sampling"] = {
                key: (dict(value) if isinstance(value, Mapping) else value)
                for key, value in sorted(self.sampling.items())
            }
            try:
                data["weighted_rates"] = {
                    metric: self.rate_estimator(metric).rate()
                    for metric in ("masked", "detected", "sdc")
                }
            except StatsError:
                # a partial fold that has not sampled every nominal
                # stratum yet — deterministic for a given count table
                data["weighted_rates"] = None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignReport":
        """Rebuild a counts-only report from its :meth:`to_dict` form.

        Accepts both generations: legacy (v1) payloads without a
        ``"sampling"`` block and v2 payloads with one.  Declared totals
        are verified against the by-kind table, so a tampered or
        truncated artifact fails loudly instead of feeding bad counts
        into a safety argument.

        Raises:
            FaultInjectionError: on malformed payloads, unknown outcome
                keys, or totals disagreeing with the by-kind table.
        """
        if not isinstance(data, Mapping):
            raise FaultInjectionError(
                f"CampaignReport expects a mapping, got {data!r}"
            )
        missing = sorted({"policy", "by_kind"} - set(data))
        if missing:
            raise FaultInjectionError(
                "not a CampaignReport payload; missing: "
                + ", ".join(missing)
            )
        outcomes_by_key = {o.name.lower(): o for o in FaultOutcome}
        by_kind: Dict[str, Dict[FaultOutcome, int]] = {}
        raw_by_kind = data["by_kind"]
        if not isinstance(raw_by_kind, Mapping):
            raise FaultInjectionError("'by_kind' must be an object")
        for kind, bucket in raw_by_kind.items():
            if not isinstance(bucket, Mapping):
                raise FaultInjectionError(
                    f"by_kind[{kind!r}] must be an object"
                )
            parsed: Dict[FaultOutcome, int] = {}
            for key, count in bucket.items():
                outcome = outcomes_by_key.get(str(key))
                if outcome is None:
                    raise FaultInjectionError(
                        f"by_kind[{kind!r}]: unknown outcome key {key!r}"
                    )
                if not isinstance(count, int) or isinstance(count, bool):
                    raise FaultInjectionError(
                        f"by_kind[{kind!r}][{key!r}] must be an integer "
                        f"count, got {count!r}"
                    )
                parsed[outcome] = count
            by_kind[str(kind)] = parsed
        sampling = data.get("sampling")
        if sampling is not None:
            if not isinstance(sampling, Mapping):
                raise FaultInjectionError("'sampling' must be an object")
            required = {"schema", "method", "nominal", "allocation"}
            missing = sorted(required - set(sampling))
            if missing:
                raise FaultInjectionError(
                    "sampling block missing: " + ", ".join(missing)
                )
            sampling = {
                key: (dict(value) if isinstance(value, Mapping) else value)
                for key, value in sampling.items()
            }
        report = cls(policy=str(data["policy"]))
        report.merge_counts(
            by_kind,
            sdc_samples=tuple(str(s) for s in data.get("sdc_samples", ())),
            sampling=sampling,
        )
        for key, declared in (("total", report.total),
                              ("masked", report.masked),
                              ("detected", report.detected),
                              ("sdc", report.sdc)):
            if key in data and data[key] != declared:
                raise FaultInjectionError(
                    f"campaign payload declares {key}={data[key]!r} but "
                    f"its by_kind table sums to {declared} — artifact "
                    "inconsistent"
                )
        return report

    def digest(self) -> str:
        """Hex digest of the canonical form (aggregate provenance key)."""
        return payload_digest(self.to_dict())
