"""Application of fault descriptors to execution traces.

The injector converts a :class:`~repro.faults.types.FaultDescriptor` plus
an :class:`~repro.gpu.trace.ExecutionTrace` into a *corruption map*
``(instance_id, tb_index) -> signature`` that the output-signature builder
(:func:`repro.redundancy.comparison.build_signature`) consumes.  SEU
faults additionally restrict the effect to a single victim block.

Only the records a fault can reach are tested: the trace's interval
index (:meth:`~repro.gpu.trace.ExecutionTrace.stab_candidates`,
:meth:`~repro.gpu.trace.ExecutionTrace.blocks_ending_after`) yields a
superset of them, and the fault's own ``effect_on`` stays the only
predicate.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.gpu.trace import ExecutionTrace, TBRecord

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

    corruption: CorruptionMap = {}
    for record in _candidates(fault, trace):
        signature = fault.effect_on(record)
        if signature is not None:
            corruption[(record.instance_id, record.tb_index)] = signature

    if isinstance(fault, SEUFault) and len(corruption) > 1:
        # a single strike has a single victim: lowest (instance, tb) active
        victim = min(corruption)
        corruption = {victim: corruption[victim]}
    return corruption


def _candidates(fault: FaultDescriptor,
                trace: ExecutionTrace) -> Sequence[TBRecord]:
    """A superset of the records ``fault.effect_on`` can corrupt.

    Exact types only: a subclass may widen ``effect_on``, so it and any
    unknown descriptor type scan every record.
    """
    kind = type(fault)
    if kind is PermanentSMFault:
        return trace.blocks_ending_after(fault.sm, fault.since)
    if kind is SEUFault:
        return trace.stab_candidates(fault.time, (fault.sm,))
    if kind is TransientCCF:
        return trace.stab_candidates(fault.time, fault.sms)
    return trace.tb_records
