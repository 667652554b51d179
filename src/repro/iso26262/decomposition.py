"""ASIL decomposition rules (ISO 26262-9, Figure 1 of the paper).

A safety requirement at a given ASIL may be decomposed onto *redundant,
sufficiently independent* elements of lower ASILs, provided the ranks add
up: ``A(rank 1) + B(rank 2)`` reaches ``C(rank 3)``, ``B + B`` reaches
``D``, and the degenerate split ``D(D) + QM(D)`` covers the paper's
monitor/actuator pattern (a QM operation channel supervised by an ASIL-D
monitor that drives the system to its safe state within the FTTI).

The paper's Figure 1 shows three examples; :data:`FIGURE1_EXAMPLES`
reproduces them and ``benchmarks/bench_fig1_asil_decomposition.py``
regenerates the figure as a table.

Key API:

* :func:`valid_decompositions` — all standard-sanctioned splits of a level;
* :func:`check_decomposition` — validate a proposed split, enforcing the
  independence precondition (no decomposition credit without independent
  redundancy — the reason GPUs need diverse redundancy at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SafetyViolation
from repro.iso26262.asil import Asil

__all__ = [
    "DecompositionRule",
    "valid_decompositions",
    "check_decomposition",
    "FIGURE1_EXAMPLES",
]


@dataclass(frozen=True)
class DecompositionRule:
    """One sanctioned decomposition of ``target`` into two parts.

    Attributes:
        target: ASIL of the requirement being decomposed.
        parts: the two element ASILs (order-insensitive; stored sorted
            descending).
    """

    target: Asil
    parts: Tuple[Asil, Asil]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.parts, reverse=True))
        object.__setattr__(self, "parts", ordered)

    @property
    def tags(self) -> Tuple[str, str]:
        """ISO notation of both parts, e.g. ``("B(D)", "B(D)")``."""
        return (
            self.parts[0].decomposed_tag(self.target),
            self.parts[1].decomposed_tag(self.target),
        )

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``D = B(D) + B(D)``."""
        a, b = self.tags
        return f"{self.target} = {a} + {b}"


def valid_decompositions(target: Asil) -> Tuple[DecompositionRule, ...]:
    """All ISO 26262-9 sanctioned two-way splits of ``target``.

    Follows the standard's scheme: every split ``(x, y)`` of safety-related
    ``target`` such that either ``y`` is QM and ``x == target`` (the
    requirement is carried entirely by one element, the other is decomposed
    out but keeps the bracket obligations), or both parts are safety
    related and their ranks sum to the target's rank.
    """
    if not target.is_safety_related:
        return ()
    # degenerate monitor/actuator split: safety carried by one element,
    # the other is QM
    rules: List[DecompositionRule] = [
        DecompositionRule(target=target, parts=(target, Asil.QM)),
    ]
    # independent redundant elements whose ranks sum to the target's
    for low_rank in range(1, target.rank // 2 + 1):
        high_rank = target.rank - low_rank
        rules.append(
            DecompositionRule(
                target=target,
                parts=(Asil.from_rank(high_rank), Asil.from_rank(low_rank)),
            )
        )
    return tuple(rules)


def check_decomposition(target: Asil, parts: Sequence[Asil], *,
                        independent: bool) -> DecompositionRule:
    """Validate a proposed decomposition of ``target`` into ``parts``.

    Args:
        target: the ASIL to be reached.
        parts: exactly two element ASILs.
        independent: whether the elements provide *independent* redundancy
            (freedom from common-cause faults).  ISO 26262 grants
            decomposition credit only with independence — this is the hook
            the GPU diverse-redundancy argument plugs into.

    Returns:
        The matching :class:`DecompositionRule`.

    Raises:
        SafetyViolation: when the split is not sanctioned or independence
            is missing.
    """
    if len(parts) != 2:
        raise SafetyViolation(
            f"ASIL decomposition is pairwise; got {len(parts)} parts"
        )
    if not independent:
        raise SafetyViolation(
            f"decomposition of {target} requires independent redundancy; "
            "dependent elements must each carry the full ASIL"
        )
    proposal = tuple(sorted(parts, reverse=True))
    for rule in valid_decompositions(target):
        if rule.parts == proposal:
            return rule
    raise SafetyViolation(
        f"{target} cannot be decomposed into {proposal[0]} + {proposal[1]} "
        f"(sanctioned: {[r.describe() for r in valid_decompositions(target)]})"
    )


def _figure1_examples() -> Tuple[Tuple[str, DecompositionRule], ...]:
    """The three decomposition examples drawn in the paper's Figure 1."""
    return (
        (
            "ASIL-C from independent ASIL-A + ASIL-B",
            check_decomposition(Asil.C, [Asil.A, Asil.B], independent=True),
        ),
        (
            "ASIL-D from independent ASIL-B + ASIL-B (DCLS cores)",
            check_decomposition(Asil.D, [Asil.B, Asil.B], independent=True),
        ),
        (
            "ASIL-D monitor + QM operation (safe-state systems)",
            check_decomposition(Asil.D, [Asil.D, Asil.QM], independent=True),
        ),
    )


#: Named examples matching the paper's Figure 1, ready for reporting.
FIGURE1_EXAMPLES: Tuple[Tuple[str, DecompositionRule], ...] = _figure1_examples()
