"""Output signatures and redundant-output comparison.

The reproduction never executes numerical kernels; what matters for the
safety argument is whether the *outputs of redundant copies agree*.  Each
kernel launch therefore produces an :class:`OutputSignature`: one abstract
token per thread block.  A fault-free block yields a token that depends
only on the logical computation (logical id + block index + input), so
fault-free copies always compare equal.  A fault replaces the token with
an error token derived from the fault's *signature* — two copies corrupted
by the same physical cause in the same way carry identical error tokens
and therefore defeat comparison, which is exactly the common-cause-fault
mechanism the paper's policies exclude.

Comparison itself models step (5) of the paper's protocol: the DCLS CPU
cores compare the result buffers of the redundant kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import RedundancyError
from repro.gpu.trace import ExecutionTrace

__all__ = [
    "Token",
    "OutputSignature",
    "build_signature",
    "ComparisonResult",
    "compare_signatures",
    "majority_vote",
]

#: A thread-block output token: ("ok", logical, tb) or ("err", *signature).
Token = Tuple


@dataclass(frozen=True)
class OutputSignature:
    """Abstract output of one kernel launch.

    Attributes:
        instance_id: the launch that produced the output.
        logical_id: logical computation identity.
        copy_id: redundancy copy index.
        tokens: one token per thread block, in block-index order.
    """

    instance_id: int
    logical_id: int
    copy_id: int
    tokens: Tuple[Token, ...]


def build_signature(trace: ExecutionTrace, instance_id: int,
                    corruption: Optional[Mapping[Tuple[int, int], Tuple]] = None
                    ) -> OutputSignature:
    """Derive a launch's output signature from the execution trace.

    Args:
        trace: simulation trace containing the launch.
        instance_id: the launch.
        corruption: optional map ``(instance_id, tb_index) -> fault
            signature`` produced by the fault-injection machinery; affected
            blocks get ``("err", *signature)`` tokens.

    Returns:
        The launch's :class:`OutputSignature`.
    """
    span = trace.span(instance_id)
    logical_id = span.logical_id
    tb_index = trace.columns.tb_index
    tokens = []
    for row in trace.rows_of(instance_id):
        tb = tb_index[row]
        key = (instance_id, tb)
        if corruption and key in corruption:
            tokens.append(("err",) + tuple(corruption[key]))
        else:
            tokens.append(("ok", logical_id, tb))
    return OutputSignature(
        instance_id=instance_id,
        logical_id=logical_id,
        copy_id=span.copy_id,
        tokens=tuple(tokens),
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Result of comparing all redundant copies of one logical kernel.

    Attributes:
        logical_id: the logical computation compared.
        copies: copy ids that participated.
        mismatching_blocks: block indices on which at least two copies
            disagreed.
        agreeing_corrupt_blocks: block indices on which *all* copies carry
            the *same* error token — silent data corruption that the
            comparison cannot detect.
    """

    logical_id: int
    copies: Tuple[int, ...]
    mismatching_blocks: Tuple[int, ...]
    agreeing_corrupt_blocks: Tuple[int, ...]

    @property
    def error_detected(self) -> bool:
        """True when the DCLS comparison flags a mismatch."""
        return bool(self.mismatching_blocks)

    @property
    def silent_corruption(self) -> bool:
        """True when corruption exists that comparison does NOT detect."""
        return bool(self.agreeing_corrupt_blocks)

    @property
    def all_clean(self) -> bool:
        """True when outputs agree and are uncorrupted."""
        return not self.error_detected and not self.silent_corruption


def compare_signatures(signatures: Sequence[OutputSignature]) -> ComparisonResult:
    """Compare the redundant output signatures of one logical kernel.

    Raises:
        RedundancyError: with fewer than two copies, mismatched logical
            ids, duplicate copy ids, or differing grid sizes (a redundant
            launch construction bug, not a modelled fault).
    """
    if len(signatures) < 2:
        raise RedundancyError("comparison requires >= 2 redundant copies")
    logical_ids = {s.logical_id for s in signatures}
    if len(logical_ids) != 1:
        raise RedundancyError(
            f"cannot compare different logical kernels: {sorted(logical_ids)}"
        )
    copy_ids = [s.copy_id for s in signatures]
    if len(set(copy_ids)) != len(copy_ids):
        raise RedundancyError(f"duplicate copy ids: {copy_ids}")
    lengths = {len(s.tokens) for s in signatures}
    if len(lengths) != 1:
        raise RedundancyError(
            f"redundant copies have different grids: {sorted(lengths)}"
        )

    mismatching = []
    agreeing_corrupt = []
    for tb in range(lengths.pop()):
        tokens = [s.tokens[tb] for s in signatures]
        if any(t != tokens[0] for t in tokens[1:]):
            mismatching.append(tb)
        elif tokens[0][0] == "err":
            agreeing_corrupt.append(tb)
    return ComparisonResult(
        logical_id=signatures[0].logical_id,
        copies=tuple(sorted(copy_ids)),
        mismatching_blocks=tuple(mismatching),
        agreeing_corrupt_blocks=tuple(agreeing_corrupt),
    )


def majority_vote(signatures: Sequence[OutputSignature]
                  ) -> Tuple[Tuple[Token, ...], Tuple[int, ...]]:
    """TMR-style per-block majority vote across >= 3 copies.

    Returns:
        ``(voted_tokens, unresolved_blocks)`` — the voted output, and the
        block indices where no strict majority existed (all copies
        disagree), which a fail-operational system must re-execute.

    Raises:
        RedundancyError: with fewer than three copies (majority of two is
            just comparison) or inconsistent grids.
    """
    if len(signatures) < 3:
        raise RedundancyError("majority vote requires >= 3 copies")
    lengths = {len(s.tokens) for s in signatures}
    if len(lengths) != 1:
        raise RedundancyError("copies have different grids")
    voted = []
    unresolved = []
    for tb in range(lengths.pop()):
        tokens = [s.tokens[tb] for s in signatures]
        counts: Dict[Token, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        winner, votes = max(counts.items(), key=lambda kv: kv[1])
        if votes * 2 > len(tokens):
            voted.append(winner)
        else:
            voted.append(tokens[0])
            unresolved.append(tb)
    return tuple(voted), tuple(unresolved)
