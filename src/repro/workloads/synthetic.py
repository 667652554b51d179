"""Parametric synthetic kernel generators.

Used by tests, property-based checks and the Figure 3 / ablation benches
to produce kernels with *known* category membership, independent of the
Rodinia-shaped suite.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.occupancy import blocks_per_sm

__all__ = [
    "make_short_kernel",
    "make_heavy_kernel",
    "make_friendly_kernel",
    "make_narrow_kernel",
]


def make_short_kernel(gpu: GPUConfig, *, name: str = "synthetic/short",
                      width_fraction: float = 1.0) -> KernelDescriptor:
    """A kernel that finishes before the redundant copy is dispatched.

    Args:
        gpu: target GPU (the dispatch latency bounds the execution time).
        width_fraction: fraction of the GPU's SMs the grid spans (1.0 =
            wider than half, the paper's backprop/bfs case).
    """
    if not (0.0 < width_fraction <= 1.0):
        raise ConfigurationError("width_fraction must be in (0, 1]")
    tpb = 256
    per_sm = blocks_per_sm(
        KernelDescriptor(name=name, grid_blocks=1, threads_per_block=tpb,
                         work_per_block=1.0),
        gpu.sm,
    )
    grid = max(1, int(gpu.num_sms * width_fraction)) * min(per_sm, 2)
    # keep the per-SM drain time safely below the dispatch gap
    waves = max(1, -(-grid // gpu.num_sms))
    work = 0.4 * gpu.dispatch_latency / waves * gpu.sm.issue_throughput
    return KernelDescriptor(
        name=name, grid_blocks=grid, threads_per_block=tpb,
        work_per_block=max(work, 1.0),
    )


def make_heavy_kernel(gpu: GPUConfig, *, name: str = "synthetic/heavy"
                      ) -> KernelDescriptor:
    """A kernel whose single copy fills the whole GPU's block residency.

    The grid equals the GPU's total resident-block capacity and each block
    runs long, so a concurrently-dispatched copy cannot start until the
    first drains — the paper's "heavy" case.
    """
    tpb = 192
    probe = KernelDescriptor(name=name, grid_blocks=1, threads_per_block=tpb,
                             work_per_block=1.0)
    capacity = blocks_per_sm(probe, gpu.sm) * gpu.num_sms
    work = 12.0 * gpu.dispatch_latency * gpu.sm.issue_throughput
    return KernelDescriptor(
        name=name, grid_blocks=capacity, threads_per_block=tpb,
        work_per_block=work,
    )


def make_friendly_kernel(gpu: GPUConfig, *, name: str = "synthetic/friendly",
                         waves: int = 2) -> KernelDescriptor:
    """A long-running kernel that leaves room for a concurrent copy.

    Spans all SMs with modest co-residency (one block per SM per wave) and
    runs well past the dispatch latency, so both copies make progress
    concurrently — the paper's "friendly" case.
    """
    if waves < 1:
        raise ConfigurationError("waves must be >= 1")
    grid = gpu.num_sms * waves
    work = 4.0 * gpu.dispatch_latency * gpu.sm.issue_throughput
    # modest footprint (threads and registers) so a redundant copy finds
    # free co-residency slots — the defining property of "friendly"
    return KernelDescriptor(
        name=name, grid_blocks=grid, threads_per_block=256,
        regs_per_thread=16, work_per_block=work,
    )


def make_narrow_kernel(gpu: GPUConfig, *, name: str = "synthetic/narrow",
                       blocks: Optional[int] = None) -> KernelDescriptor:
    """A kernel using at most half the SMs (myocyte-like when long).

    Args:
        blocks: grid size; defaults to half the SM count (minimum 1).
    """
    grid = blocks if blocks is not None else max(1, gpu.num_sms // 2)
    if grid > gpu.num_sms // 2 and gpu.num_sms > 1:
        raise ConfigurationError(
            f"narrow kernel must use <= half the SMs ({gpu.num_sms // 2})"
        )
    work = 20.0 * gpu.dispatch_latency * gpu.sm.issue_throughput
    return KernelDescriptor(
        name=name, grid_blocks=grid, threads_per_block=128,
        work_per_block=work,
    )
