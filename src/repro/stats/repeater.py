"""Repeat-until-confidence bookkeeping for campaigns.

A *repeater* keeps extending a deterministic run — additional shard
batches of a campaign's indexed fault population — until the confidence
interval on a chosen metric is tight enough, or a hard budget cap is
hit.  This module holds the stopping rule (:func:`target_met`) and the
:class:`RepeatResult` value object the repeater returns.

The stopping prefix is folded by :class:`repro.campaigns.fold.PrefixFold`:
the first shard-prefix whose fold meets the target, a pure function of
the data, so the result is bit-identical for any worker count or
kill/resume history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import RepeatBudgetError, StatsError
from repro.stats.intervals import RateEstimate

__all__ = ["RepeatResult", "target_met"]

#: ``stop_reason`` when the CI target was met within budget.
STOP_TARGET = "target_met"
#: ``stop_reason`` when the budget cap was exhausted first.
STOP_BUDGET = "budget_exhausted"


def target_met(estimate: RateEstimate, *,
               relative_half_width: Optional[float] = None,
               half_width: Optional[float] = None) -> bool:
    """Whether an estimate satisfies the repeater's CI-width target.

    Exactly one of the two targets must be given.  A relative target is
    never met while the rate estimate is zero (its relative half-width
    is infinite) — the repeater keeps sampling until it has seen events.

    Args:
        estimate: the interval to test.
        relative_half_width: target on ``half_width / rate``.
        half_width: absolute target on the half-width.

    Raises:
        StatsError: when neither or both targets are given, or a target
            is not positive.
    """
    if (relative_half_width is None) == (half_width is None):
        raise StatsError(
            "exactly one of relative_half_width / half_width must be set"
        )
    if relative_half_width is not None:
        if relative_half_width <= 0.0:
            raise StatsError(
                f"relative_half_width must be positive: {relative_half_width}"
            )
        return estimate.relative_half_width <= relative_half_width
    if half_width <= 0.0:
        raise StatsError(f"half_width must be positive: {half_width}")
    return estimate.half_width <= half_width


@dataclass(frozen=True)
class RepeatResult:
    """Outcome of one repeat-until-confidence run.

    Attributes:
        metric: the targeted rate (e.g. ``"sdc"``).
        converged: whether the CI target was met within budget.
        stop_reason: ``"target_met"`` or ``"budget_exhausted"``.
        batches: number of evaluation points the repeater folded.
        total: injections in the returned aggregate.
        estimate: the final interval on the targeted metric.
        history: one interval per evaluation point, in order — the
            convergence trajectory.
        report: the final aggregate report
            (:class:`~repro.faults.campaign.CampaignReport`).
        error: human-readable budget-failure description (``None`` when
            converged); :meth:`check` raises it as a typed error.
    """

    metric: str
    converged: bool
    stop_reason: str
    batches: int
    total: int
    estimate: RateEstimate
    report: Any
    history: Tuple[RateEstimate, ...] = field(default_factory=tuple)
    error: Optional[str] = None

    def check(self) -> "RepeatResult":
        """Return ``self`` when converged, raise otherwise.

        Raises:
            RepeatBudgetError: when the budget cap was exhausted before
                the CI target was met (the message is :attr:`error`).
        """
        if not self.converged:
            raise RepeatBudgetError(
                self.error or
                f"repeat budget exhausted before the CI target on "
                f"{self.metric!r} was met"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for CLI ``--json`` output.

        Contains the embedded report's canonical dict, the final
        estimate, and the convergence trajectory.
        """
        return {
            "metric": self.metric,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "batches": self.batches,
            "total": self.total,
            "estimate": self.estimate.to_dict(),
            "history": [e.to_dict() for e in self.history],
            "error": self.error,
            "report": self.report.to_dict(),
        }
