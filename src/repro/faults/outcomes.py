"""Fault-outcome classification.

Given the corruption a fault inflicted and the DCLS comparisons of the
redundant run, each injection is classified as:

* **MASKED** — the fault hit no active computation; outputs are correct.
* **DETECTED** — at least one comparison mismatched: the safety mechanism
  (redundant execution + DCLS comparison) caught the error, and recovery
  (re-execution within the FTTI) proceeds.
* **SDC** — silent data corruption: every corrupted block carries the
  *same* corruption in *all* copies, so the comparison passes while the
  output is wrong.  This is the ISO 26262 single-point-of-failure the
  paper's scheduling policies are designed to exclude.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

if TYPE_CHECKING:
    from repro.faults.injector import CorruptionMap
    from repro.redundancy.comparison import ComparisonResult

__all__ = ["FaultOutcome", "InjectionResult", "OUTCOME_KEYS", "OUTCOMES_BY_KEY",
           "classify_outcome"]


class FaultOutcome(enum.Enum):
    """Terminal classification of one fault injection."""

    MASKED = "masked"
    DETECTED = "detected"
    SDC = "silent-data-corruption"


#: ``FaultOutcome -> stable JSON key`` ("masked" / "detected" / "sdc"):
#: the outcome keys of shard records and campaign reports.
OUTCOME_KEYS: Dict[FaultOutcome, str] = {o: o.name.lower() for o in FaultOutcome}
#: Inverse of :data:`OUTCOME_KEYS`.
OUTCOMES_BY_KEY: Dict[str, FaultOutcome] = {v: k for k, v in OUTCOME_KEYS.items()}


@dataclass(frozen=True)
class InjectionResult:
    """Record of one injection: its outcome.

    Attributes:
        outcome: terminal classification.
    """

    outcome: FaultOutcome


def classify_outcome(corruption: CorruptionMap,
                     comparisons: Sequence[ComparisonResult]
                     ) -> FaultOutcome:
    """Classify one injection from its corruption and the comparisons.

    ``comparisons`` must be the DCLS comparisons computed *with* the
    corruption applied; :meth:`repro.faults.campaign.FaultCampaign.classify`
    gives the same outcome from the corrupted cells alone.

    The classification is conservative in the safety direction: an
    injection that produces any detectable mismatch is DETECTED even if it
    *also* produced an agreeing corruption elsewhere — ISO 26262 requires
    the fault to be detected, after which recovery re-executes everything.
    An injection whose only effects agree across all copies is SDC.
    """
    if not corruption:
        return FaultOutcome.MASKED
    if any(c.error_detected for c in comparisons):
        return FaultOutcome.DETECTED
    if any(c.silent_corruption for c in comparisons):
        return FaultOutcome.SDC
    # corruption existed but no comparison saw it: can only happen when
    # corrupted launches were not part of any comparison group — treat as
    # silent corruption (worst case) rather than hiding it.
    return FaultOutcome.SDC
