"""Application of fault descriptors to execution traces.

The injector converts a :class:`~repro.faults.types.FaultDescriptor` plus
an :class:`~repro.gpu.trace.ExecutionTrace` into a *corruption map*
``(instance_id, tb_index) -> signature`` that the output-signature builder
(:func:`repro.redundancy.comparison.build_signature`) consumes.  SEU
faults additionally restrict the effect to a single victim block.

Only the block rows a fault can reach are tested: the trace's per-SM
start window (:meth:`~repro.gpu.trace.ExecutionTrace.window_rows`) or
the faulty SM's rows (:meth:`~repro.gpu.trace.ExecutionTrace.rows_on_sm`)
are a superset of them, and the fault's own ``effect_on`` stays the only
predicate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.errors import FaultInjectionError
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.gpu.trace import ExecutionTrace

__all__ = ["apply_fault", "CorruptionMap"]

#: Corruption map type: (instance_id, tb_index) -> fault signature.
CorruptionMap = Dict[Tuple[int, int], Tuple]


def apply_fault(fault: FaultDescriptor, trace: ExecutionTrace) -> CorruptionMap:
    """Compute the corruption a fault inflicts on a trace.

    Args:
        fault: the fault descriptor.
        trace: the (deterministic) execution trace to corrupt.

    Returns:
        Mapping from affected ``(instance_id, tb_index)`` to the fault's
        corruption signature.  Empty when the fault hits no active block
        (a masked fault).

    Raises:
        FaultInjectionError: when the fault references an SM the trace's
            GPU does not have.
    """
    sm_attr = getattr(fault, "sm", None)
    if sm_attr is not None and sm_attr >= trace.num_sms:
        raise FaultInjectionError(
            f"fault targets SM {sm_attr}, trace has {trace.num_sms} SMs"
        )
    sms_attr = getattr(fault, "sms", None)
    if sms_attr is not None:
        bad = [sm for sm in sms_attr if not (0 <= sm < trace.num_sms)]
        if bad:
            raise FaultInjectionError(
                f"fault targets unknown SMs {bad} (trace has "
                f"{trace.num_sms})"
            )

    cols = trace.columns
    instance_id, tb_index = cols.instance_id, cols.tb_index
    corruption: CorruptionMap = {}
    for row in _candidates(fault, trace):
        signature = fault.effect_on(cols, row)
        if signature is not None:
            corruption[(instance_id[row], tb_index[row])] = signature

    if isinstance(fault, SEUFault) and len(corruption) > 1:
        # a single strike has a single victim: lowest (instance, tb) active
        victim = min(corruption)
        corruption = {victim: corruption[victim]}
    return corruption


def _candidates(fault: FaultDescriptor,
                trace: ExecutionTrace) -> Iterable[int]:
    """A superset of the rows ``fault.effect_on`` can corrupt.

    Exact types only: a subclass may widen ``effect_on``, so it and any
    unknown descriptor type scan every row.
    """
    kind = type(fault)
    if kind is PermanentSMFault:
        return trace.rows_on_sm(fault.sm)
    if kind is SEUFault:
        return trace.window_rows(fault.time, (fault.sm,))
    if kind is TransientCCF:
        return trace.window_rows(fault.time, fault.sms)
    return range(trace.num_blocks)
