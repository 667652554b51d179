"""Safety-goal / safety-requirement modelling.

A light executable safety case: safety goals carry an ASIL and an FTTI;
requirements are allocated to system *elements* (CPU cluster, GPU, kernel
scheduler, interconnect, memories); each element declares its claimed ASIL
capability and its redundant peer, if any.  :func:`check_system`
walks the allocation and raises :class:`~repro.errors.SafetyViolation`
with an actionable message when a claim is unsupported.

This module encodes the paper's system argument (Section IV-A):

* DCLS CPU cores → ASIL-D by B(D)+B(D) decomposition with lockstep
  independence;
* GPU SMs → ASIL-B capable individually, lifted to ASIL-D via redundant
  kernels *only if* the execution is diverse (different SM, different
  time) — which is exactly what SRRS/HALF certify and the default
  scheduler does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SafetyViolation
from repro.iso26262.asil import Asil
from repro.iso26262.decomposition import check_decomposition
from repro.iso26262.fault_model import Ftti

__all__ = [
    "SystemElement",
    "SafetyGoal",
    "SafetyRequirement",
    "check_requirement",
    "check_system",
]


@dataclass
class SystemElement:
    """A hardware/software element with a claimed ASIL capability.

    Attributes:
        name: element name.
        standalone_asil: ASIL the element reaches by itself (e.g. GPU SMs
            are "ASIL-B compatible" per the paper).
        redundant_with: name of a redundant peer element, if any.
        independent_of_peer: whether the redundancy with the peer is
            *independent* (diverse) — the decomposition precondition.
    """

    name: str
    standalone_asil: Asil
    redundant_with: Optional[str] = None
    independent_of_peer: bool = False

    def claimed_asil(self, elements: Dict[str, "SystemElement"]) -> Asil:
        """ASIL the element can claim, exploiting decomposition with a peer.

        Without a peer this is the standalone ASIL.  With an independent
        redundant peer, ranks add (saturating at D) per ISO 26262-9.
        """
        if self.redundant_with is None:
            return self.standalone_asil
        peer = elements.get(self.redundant_with)
        if peer is None:
            raise ConfigurationError(
                f"{self.name}: redundant peer {self.redundant_with!r} unknown"
            )
        if not self.independent_of_peer:
            return self.standalone_asil
        return Asil.from_rank(self.standalone_asil.rank + peer.standalone_asil.rank)


@dataclass(frozen=True)
class SafetyGoal:
    """Top-level safety goal with ASIL and FTTI.

    Attributes:
        name: e.g. ``"no undetected erroneous object list"``.
        asil: integrity level from hazard analysis.
        ftti: fault-tolerant time interval.
    """

    name: str
    asil: Asil
    ftti: Ftti

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("safety goal needs a name")


@dataclass(frozen=True)
class SafetyRequirement:
    """A requirement derived from a goal and allocated to elements.

    Attributes:
        name: requirement identifier.
        goal: parent safety goal (the requirement inherits its ASIL unless
            decomposed).
        allocated_to: names of the elements implementing it.
        decomposed: whether the allocation claims ASIL decomposition
            across exactly two redundant elements.
    """

    name: str
    goal: SafetyGoal
    allocated_to: Tuple[str, ...]
    decomposed: bool = False


def check_requirement(req: SafetyRequirement,
                      elements: Dict[str, SystemElement]) -> None:
    """Validate one requirement's allocation.

    * undecomposed: every allocated element must claim the goal's ASIL;
    * decomposed: exactly two elements whose standalone ASILs form a valid
      decomposition of the goal ASIL *and* which are mutually independent.

    Raises:
        SafetyViolation / ConfigurationError with a precise reason.
    """
    if not req.allocated_to:
        raise ConfigurationError(f"{req.name}: allocated to no element")
    missing = [n for n in req.allocated_to if n not in elements]
    if missing:
        raise ConfigurationError(f"{req.name}: unknown elements {missing}")

    if not req.decomposed:
        for name in req.allocated_to:
            element = elements[name]
            claimed = element.claimed_asil(elements)
            if claimed < req.goal.asil:
                raise SafetyViolation(
                    f"{req.name}: element {name!r} claims {claimed}, "
                    f"goal requires {req.goal.asil}"
                )
        return

    if len(req.allocated_to) != 2:
        raise SafetyViolation(
            f"{req.name}: decomposition requires exactly 2 elements, "
            f"got {len(req.allocated_to)}"
        )
    a, b = (elements[n] for n in req.allocated_to)
    independent = (
        a.redundant_with == b.name
        and b.redundant_with == a.name
        and a.independent_of_peer
        and b.independent_of_peer
    )
    check_decomposition(
        req.goal.asil,
        [a.standalone_asil, b.standalone_asil],
        independent=independent,
    )


def check_system(requirements: Sequence[SafetyRequirement],
                 elements: Dict[str, SystemElement]) -> List[str]:
    """Validate every requirement; return human-readable confirmations.

    Raises on the first violation (fail-fast, like an assessment finding).
    """
    confirmations = []
    for req in requirements:
        check_requirement(req, elements)
        kind = "decomposed onto" if req.decomposed else "allocated to"
        confirmations.append(
            f"{req.name} [{req.goal.asil}] {kind} "
            + ", ".join(req.allocated_to)
        )
    return confirmations
