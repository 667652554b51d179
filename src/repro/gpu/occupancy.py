"""SM occupancy calculation.

Determines how many thread blocks of a kernel can be resident on one SM
simultaneously, limited by the four classic occupancy constraints: block
slots, thread count, register file and shared memory.  This is the mechanism
behind the paper's *heavy* kernel category — a kernel whose blocks exhaust
SM resources prevents a concurrently-dispatched kernel from starting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError
from repro.gpu.config import SMConfig
from repro.gpu.kernel import KernelDescriptor

__all__ = ["OccupancyReport", "blocks_per_sm", "occupancy_report"]


@dataclass(frozen=True)
class OccupancyReport:
    """Breakdown of the per-SM occupancy limits for one kernel.

    Attributes:
        blocks_limit: limit imposed by SM block slots.
        threads_limit: limit imposed by the SM thread budget.
        regs_limit: limit imposed by the register file.
        smem_limit: limit imposed by shared memory (``None`` if the kernel
            uses no shared memory, i.e. unconstrained).
        blocks_per_sm: the binding minimum of the above.
        limiter: name of the binding constraint (ties resolved in the order
            blocks, threads, registers, shared memory).
    """

    blocks_limit: int
    threads_limit: int
    regs_limit: int
    smem_limit: int | None
    blocks_per_sm: int
    limiter: str


def occupancy_report(kernel: KernelDescriptor, sm: SMConfig) -> OccupancyReport:
    """Compute the full occupancy breakdown of ``kernel`` on ``sm``.

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

    blocks_limit = sm.max_blocks
    threads_limit = sm.max_threads // kernel.threads_per_block
    regs_limit = sm.registers // regs_per_block if regs_per_block else sm.max_blocks
    if kernel.shared_mem_per_block:
        smem_limit: int | None = sm.shared_memory // kernel.shared_mem_per_block
    else:
        smem_limit = None

    candidates = {
        "blocks": blocks_limit,
        "threads": threads_limit,
        "registers": regs_limit,
    }
    if smem_limit is not None:
        candidates["shared_memory"] = smem_limit

    limiter = min(candidates, key=lambda k: candidates[k])
    binding = candidates[limiter]
    return OccupancyReport(
        blocks_limit=blocks_limit,
        threads_limit=threads_limit,
        regs_limit=regs_limit,
        smem_limit=smem_limit,
        blocks_per_sm=binding,
        limiter=limiter,
    )


def blocks_per_sm(kernel: KernelDescriptor, sm: SMConfig) -> int:
    """Maximum co-resident blocks of ``kernel`` on one SM (>= 1)."""
    return occupancy_report(kernel, sm).blocks_per_sm
