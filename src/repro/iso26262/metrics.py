"""ISO 26262-5 hardware architectural metrics.

Implements the three quantitative targets the standard attaches to each
ASIL, which the paper's Section II refers to as "some specific diagnostic
coverage must be achieved and some random failure rates are deemed as
acceptable":

* **SPFM** — single-point fault metric: fraction of the element's failure
  rate that is *not* a single-point or residual fault;
* **LFM** — latent fault metric: fraction of non-single-point faults that
  are *not* latent (detected by a safety mechanism or perceived by the
  driver).  The paper's Section IV-C requires periodic tests of the kernel
  scheduler precisely to keep scheduler faults from becoming latent;
* **PMHF** — probabilistic metric for random hardware failures: the
  residual failure rate in failures per hour (FIT = 1e-9/h).

Targets follow ISO 26262-5 Tables 4-6 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError, SafetyViolation
from repro.iso26262.asil import Asil

__all__ = [
    "MetricTargets",
    "TARGETS",
    "FailureRateBudget",
    "HardwareMetrics",
    "coverage_from_campaign",
]

@dataclass(frozen=True)
class MetricTargets:
    """Quantitative targets for one ASIL.

    ``None`` means the standard sets no target at that level.

    Attributes:
        spfm: minimum single-point fault metric (fraction, 0..1).
        lfm: minimum latent fault metric (fraction, 0..1).
        pmhf_per_hour: maximum residual failure rate (1/h).
    """

    spfm: Optional[float]
    lfm: Optional[float]
    pmhf_per_hour: Optional[float]


#: ISO 26262-5 targets per ASIL (Tables 4, 5 and 8 of the standard).
TARGETS: Dict[Asil, MetricTargets] = {
    Asil.QM: MetricTargets(None, None, None),
    Asil.A: MetricTargets(None, None, None),
    Asil.B: MetricTargets(0.90, 0.60, 1e-7),
    Asil.C: MetricTargets(0.97, 0.80, 1e-7),
    Asil.D: MetricTargets(0.99, 0.90, 1e-8),
}


@dataclass(frozen=True)
class FailureRateBudget:
    """Partition of an element's raw failure rate (all in 1/h).

    Attributes:
        total: total random-hardware failure rate of the element.
        single_point: failures of safety-related parts with no safety
            mechanism at all that directly violate the safety goal.
        residual: failures that escape an existing safety mechanism
            (``(1 - DC) * covered_rate``).
        latent_multi_point: multiple-point faults neither detected by a
            mechanism nor perceived by the driver.
    """

    total: float
    single_point: float
    residual: float
    latent_multi_point: float

    def __post_init__(self) -> None:
        for label, v in (
            ("total", self.total),
            ("single_point", self.single_point),
            ("residual", self.residual),
            ("latent_multi_point", self.latent_multi_point),
        ):
            if v < 0:
                raise ConfigurationError(f"{label} rate cannot be negative")
        if self.single_point + self.residual + self.latent_multi_point > self.total * (1 + 1e-9):
            raise ConfigurationError(
                "fault-category rates exceed the total failure rate"
            )


@dataclass(frozen=True)
class HardwareMetrics:
    """Computed SPFM / LFM / PMHF of an element.

    Construct via :meth:`from_budget` (classification-based, ISO formulas)
    or :func:`coverage_from_campaign` (from fault-injection results).
    """

    spfm: float
    lfm: float
    pmhf_per_hour: float

    @classmethod
    def from_budget(cls, budget: FailureRateBudget) -> "HardwareMetrics":
        """Apply the ISO 26262-5 Annex C formulas to a rate budget."""
        if budget.total == 0:
            return cls(spfm=1.0, lfm=1.0, pmhf_per_hour=0.0)
        violating = budget.single_point + budget.residual
        spfm = 1.0 - violating / budget.total
        non_spf = budget.total - violating
        lfm = 1.0 if non_spf == 0 else 1.0 - budget.latent_multi_point / non_spf
        pmhf = violating
        return cls(spfm=spfm, lfm=lfm, pmhf_per_hour=pmhf)

    def check(self, asil: Asil, context: str = "") -> None:
        """Assert the targets of ``asil`` are met.

        Raises:
            SafetyViolation: listing every violated target.
        """
        targets = TARGETS[asil]
        problems = []
        if targets.spfm is not None and self.spfm < targets.spfm:
            problems.append(f"SPFM {self.spfm:.4f} < {targets.spfm}")
        if targets.lfm is not None and self.lfm < targets.lfm:
            problems.append(f"LFM {self.lfm:.4f} < {targets.lfm}")
        if targets.pmhf_per_hour is not None and self.pmhf_per_hour > targets.pmhf_per_hour:
            problems.append(
                f"PMHF {self.pmhf_per_hour:.3e}/h > {targets.pmhf_per_hour:.1e}/h"
            )
        if problems:
            prefix = f"{context}: " if context else ""
            raise SafetyViolation(prefix + f"{asil} targets violated: " + "; ".join(problems))


def coverage_from_campaign(total_injections: int, detected: int,
                           masked: int, undetected: int,
                           raw_failure_rate_per_hour: float) -> HardwareMetrics:
    """Derive architectural metrics from a fault-injection campaign.

    Treats the campaign as a Monte-Carlo estimate of diagnostic coverage:
    undetected silent corruptions are residual faults; masked faults do not
    violate the safety goal; detected faults are covered by the safety
    mechanism (redundant execution + DCLS comparison).

    Args:
        total_injections: campaign size (must equal the sum of outcomes).
        detected / masked / undetected: outcome counts.
        raw_failure_rate_per_hour: the element's raw failure rate to scale
            the residual fraction into a PMHF figure.

    Raises:
        ConfigurationError: on inconsistent counts.
    """
    if total_injections <= 0:
        raise ConfigurationError("campaign must contain injections")
    if detected + masked + undetected != total_injections:
        raise ConfigurationError(
            "outcome counts do not sum to the campaign size"
        )
    if raw_failure_rate_per_hour < 0:
        raise ConfigurationError("failure rate cannot be negative")
    dangerous = detected + undetected
    coverage = 1.0 if dangerous == 0 else detected / dangerous
    residual_fraction = 0.0 if dangerous == 0 else undetected / total_injections
    budget = FailureRateBudget(
        total=raw_failure_rate_per_hour,
        single_point=0.0,
        residual=residual_fraction * raw_failure_rate_per_hour,
        latent_multi_point=0.0,
    )
    metrics = HardwareMetrics.from_budget(budget)
    # re-package with the campaign coverage folded into LFM=coverage proxy
    return HardwareMetrics(
        spfm=metrics.spfm, lfm=coverage, pmhf_per_hour=metrics.pmhf_per_hour
    )
