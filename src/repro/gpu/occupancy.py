"""SM occupancy calculation.

Determines how many thread blocks of a kernel can be resident on one SM
simultaneously, limited by the four classic occupancy constraints: block
slots, thread count, register file and shared memory.  This is the mechanism
behind the paper's *heavy* kernel category — a kernel whose blocks exhaust
SM resources prevents a concurrently-dispatched kernel from starting.
"""

from __future__ import annotations

from repro.errors import CapacityError
from repro.gpu.config import SMConfig
from repro.gpu.kernel import KernelDescriptor

__all__ = ["blocks_per_sm"]


def blocks_per_sm(kernel: KernelDescriptor, sm: SMConfig) -> int:
    """Maximum co-resident blocks of ``kernel`` on one SM (>= 1): the
    binding minimum of the block-slot, thread, register and
    shared-memory limits.

    Raises:
        CapacityError: if a single block can never fit on the SM.
    """
    if kernel.threads_per_block > sm.max_threads:
        raise CapacityError(
            f"{kernel.name}: block of {kernel.threads_per_block} threads "
            f"exceeds SM limit of {sm.max_threads}"
        )
    regs_per_block = kernel.regs_per_thread * kernel.threads_per_block
    if regs_per_block > sm.registers:
        raise CapacityError(
            f"{kernel.name}: block needs {regs_per_block} registers, "
            f"SM has {sm.registers}"
        )
    if kernel.shared_mem_per_block > sm.shared_memory:
        raise CapacityError(
            f"{kernel.name}: block needs {kernel.shared_mem_per_block} B "
            f"shared memory, SM has {sm.shared_memory} B"
        )
    limits = [sm.max_blocks, sm.max_threads // kernel.threads_per_block]
    if regs_per_block:
        limits.append(sm.registers // regs_per_block)
    if kernel.shared_mem_per_block:
        limits.append(sm.shared_memory // kernel.shared_mem_per_block)
    return min(limits)
