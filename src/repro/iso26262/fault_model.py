"""ISO 26262 fault timing model (FTTI).

Captures the standard's timing vocabulary the paper builds on:

* the *fault-tolerant time interval* (FTTI): the span from fault occurrence
  to the latest point at which the system must have reached a safe state or
  degraded-but-safe operation.  The paper's footnote 1 assumes errors are
  recovered within the FTTI by re-executing after detection;
* :class:`FaultHandlingTimeline` — bookkeeping that checks detection plus
  reaction (e.g. kernel re-execution) fits inside the FTTI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, SafetyViolation

__all__ = ["Ftti", "FaultHandlingTimeline"]


@dataclass(frozen=True)
class Ftti:
    """Fault-tolerant time interval of a safety goal.

    Attributes:
        milliseconds: the budget from fault occurrence to safe handling.
    """

    milliseconds: float

    def __post_init__(self) -> None:
        if self.milliseconds <= 0:
            raise ConfigurationError("FTTI must be positive")


@dataclass(frozen=True)
class FaultHandlingTimeline:
    """Timing of one fault's detection and reaction.

    All times are milliseconds relative to fault occurrence at 0.

    Attributes:
        detected_at: when the error was detected (``None`` = never — an
            undetected fault always violates the FTTI check).
        handled_at: when the reaction completed (safe state reached or
            correct result re-produced); ``None`` = not handled.
    """

    detected_at: Optional[float]
    handled_at: Optional[float]

    def __post_init__(self) -> None:
        if self.detected_at is not None and self.detected_at < 0:
            raise ConfigurationError("detection cannot precede the fault")
        if self.handled_at is not None:
            if self.detected_at is None:
                raise ConfigurationError("cannot handle an undetected fault")
            if self.handled_at < self.detected_at:
                raise ConfigurationError("handling cannot precede detection")

    @property
    def detected(self) -> bool:
        """True when the fault was detected at all."""
        return self.detected_at is not None

    def within(self, ftti: Ftti) -> bool:
        """True when detection *and* reaction completed inside the FTTI."""
        return self.handled_at is not None and self.handled_at <= ftti.milliseconds

    def check(self, ftti: Ftti, context: str = "") -> None:
        """Assert the FTTI is met.

        Raises:
            SafetyViolation: when the fault is undetected, unhandled or
                handled too late.
        """
        prefix = f"{context}: " if context else ""
        if not self.detected:
            raise SafetyViolation(prefix + "fault was never detected")
        if self.handled_at is None:
            raise SafetyViolation(prefix + "fault detected but never handled")
        if self.handled_at > ftti.milliseconds:
            raise SafetyViolation(
                prefix
                + f"fault handled at {self.handled_at:.3f} ms, after the "
                f"FTTI of {ftti.milliseconds:.3f} ms"
            )
