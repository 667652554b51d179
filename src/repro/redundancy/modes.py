"""Redundancy modes and fail-operational recovery planning.

The paper evaluates dual modular redundancy (DMR) and notes (footnote 1)
that the approach "could be seamlessly extended to other redundancy levels
(e.g. triple modular redundancy)" and that fail-operational capability is
obtained "by, for instance, reexecuting upon an error detection" within
the FTTI.  This module implements that extension:

* :class:`RedundancyMode` — DMR (detect + re-execute) vs TMR (mask by
  majority vote, re-execute only without a majority);
* :func:`plan_recovery` — what a fail-operational controller does with a
  comparison outcome;
* :func:`recovery_time_cycles` — the re-execution time bound used for the
  FTTI check (one extra serialized redundant pass).
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.errors import RedundancyError
from repro.iso26262.fault_model import FaultHandlingTimeline
from repro.redundancy.comparison import (
    ComparisonResult,
    OutputSignature,
    majority_vote,
)

__all__ = [
    "RedundancyMode",
    "RecoveryAction",
    "plan_recovery",
    "recovery_timeline",
]


class RedundancyMode(enum.Enum):
    """Modular-redundancy degree."""

    DMR = 2
    TMR = 3

    @property
    def copies(self) -> int:
        """Number of redundant kernel copies the mode launches."""
        return self.value


class RecoveryAction(enum.Enum):
    """What the fail-operational controller must do after comparison."""

    NONE = "none"                    # outputs agree, no corruption known
    REEXECUTE = "re-execute"         # mismatch in DMR: detect-and-retry
    VOTE_CORRECT = "vote-correct"    # TMR: majority masks the error
    UNRECOVERABLE = "unrecoverable"  # silent corruption escaped comparison


def plan_recovery(mode: RedundancyMode, comparison: ComparisonResult,
                  signatures: Sequence[OutputSignature] = ()
                  ) -> RecoveryAction:
    """Decide the recovery action for one logical kernel's comparison.

    * DMR: any mismatch → re-execute the redundant pair.
    * TMR: a mismatch where a strict per-block majority exists → correct
      by vote; otherwise re-execute.
    * Agreeing-but-corrupt outputs are *silent corruption*: the mechanism
      failed, flagged as :attr:`RecoveryAction.UNRECOVERABLE` (this is the
      outcome the paper's diverse scheduling makes impossible for single
      faults).

    Args:
        mode: redundancy mode.
        comparison: DCLS comparison result of this logical kernel.
        signatures: the copies' output signatures; required for TMR vote
            feasibility analysis.

    Raises:
        RedundancyError: TMR planning without the three signatures.
    """
    if comparison.silent_corruption:
        return RecoveryAction.UNRECOVERABLE
    if not comparison.error_detected:
        return RecoveryAction.NONE
    if mode is RedundancyMode.DMR:
        return RecoveryAction.REEXECUTE
    # TMR: see whether every mismatching block has a strict majority
    if len(signatures) < 3:
        raise RedundancyError(
            "TMR recovery planning needs the three output signatures"
        )
    _, unresolved = majority_vote(signatures)
    if unresolved:
        return RecoveryAction.REEXECUTE
    return RecoveryAction.VOTE_CORRECT


def recovery_timeline(action: RecoveryAction, *,
                      detection_ms: float,
                      reexecution_ms: float) -> FaultHandlingTimeline:
    """Build the fault-handling timeline implied by a recovery action.

    Args:
        action: planned recovery.
        detection_ms: time from fault to DCLS comparison mismatch (the
            redundant pass completes, results are compared).
        reexecution_ms: time of one full redundant re-execution.

    Returns:
        A :class:`FaultHandlingTimeline` suitable for
        :meth:`~repro.iso26262.fault_model.FaultHandlingTimeline.check`
        against a goal's FTTI.  ``UNRECOVERABLE`` yields an undetected
        timeline (which always fails the check, by design).
    """
    if action is RecoveryAction.UNRECOVERABLE:
        return FaultHandlingTimeline(detected_at=None, handled_at=None)
    if action is RecoveryAction.NONE:
        return FaultHandlingTimeline(detected_at=detection_ms,
                                     handled_at=detection_ms)
    if action is RecoveryAction.VOTE_CORRECT:
        # voting corrects at comparison time, no re-execution needed
        return FaultHandlingTimeline(detected_at=detection_ms,
                                     handled_at=detection_ms)
    return FaultHandlingTimeline(
        detected_at=detection_ms,
        handled_at=detection_ms + reexecution_ms,
    )
