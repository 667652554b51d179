"""Kernel, grid and launch models.

A :class:`KernelDescriptor` is the static description of a CUDA-style kernel:
its grid (number of thread blocks), per-block resource footprint, and its
abstract compute/memory demand.  The simulator never executes real code —
it only needs the *shape* of the kernel (parallelism vs. resources vs. work),
which is exactly what the paper's evaluation depends on.

A :class:`KernelLaunch` is one dynamic invocation of a descriptor with an
instance identity, a *copy id* (0 for the primary, 1 for the redundant copy,
2 for a TMR third copy, ...), an arrival time or dependency set, and an
optional logical input signature used by the fault-injection machinery to
derive output signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["KernelDescriptor", "KernelLaunch", "dependent_chain"]


@dataclass(frozen=True)
class KernelDescriptor:
    """Static description of a GPU kernel.

    Attributes:
        name: kernel identifier (e.g. ``"hotspot/calculate_temp"``).
        grid_blocks: number of thread blocks in the launch grid.
        threads_per_block: threads per block.
        regs_per_thread: 32-bit registers used per thread.
        shared_mem_per_block: bytes of shared memory statically allocated
            per block.
        work_per_block: abstract compute work units a block must retire.
            One unit equals one cycle of a whole SM at issue throughput 1.0.
        bytes_per_block: DRAM traffic (bytes) a block generates; drained at
            the block's share of the GPU-wide DRAM bandwidth, overlapped
            with compute (GPU latency hiding).
        output_bytes: size of the kernel's result buffer, transferred back
            to the host and compared on the DCLS cores.
        input_bytes: size of input buffers transferred host-to-device.
    """

    name: str
    grid_blocks: int
    threads_per_block: int
    regs_per_thread: int = 24
    shared_mem_per_block: int = 0
    work_per_block: float = 1000.0
    bytes_per_block: float = 0.0
    output_bytes: int = 4096
    input_bytes: int = 4096

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("kernel name must be non-empty")
        if self.grid_blocks <= 0:
            raise ConfigurationError(f"{self.name}: grid must have >= 1 block")
        if self.threads_per_block <= 0:
            raise ConfigurationError(f"{self.name}: block must have >= 1 thread")
        if self.regs_per_thread < 0:
            raise ConfigurationError(f"{self.name}: negative register usage")
        if self.shared_mem_per_block < 0:
            raise ConfigurationError(f"{self.name}: negative shared memory")
        if self.work_per_block < 0 or self.bytes_per_block < 0:
            raise ConfigurationError(f"{self.name}: negative work demand")
        if self.work_per_block == 0 and self.bytes_per_block == 0:
            raise ConfigurationError(f"{self.name}: kernel performs no work")
        if self.output_bytes < 0 or self.input_bytes < 0:
            raise ConfigurationError(f"{self.name}: negative buffer size")

    # ------------------------------------------------------------------
    @property
    def total_work(self) -> float:
        """Aggregate compute work units of the whole grid."""
        return self.grid_blocks * self.work_per_block

    @property
    def total_bytes(self) -> float:
        """Aggregate DRAM traffic of the whole grid."""
        return self.grid_blocks * self.bytes_per_block

    def ideal_cycles(self, num_sms: int, issue_throughput: float = 1.0,
                     dram_bandwidth: float = float("inf"),
                     blocks_per_sm: Optional[int] = None) -> float:
        """Lower-bound execution cycles on an idle GPU slice.

        Computed as the max of the compute-throughput bound, the wave-count
        bound (blocks execute in waves of ``num_sms * blocks_per_sm``) and
        the DRAM-bandwidth bound: an analytic cross-check of the
        simulator.
        """
        if num_sms <= 0:
            raise ConfigurationError("num_sms must be positive")
        compute_bound = self.total_work / (num_sms * issue_throughput)
        dram_bound = self.total_bytes / dram_bandwidth if self.total_bytes else 0.0
        if blocks_per_sm is not None and blocks_per_sm > 0:
            waves = math.ceil(self.grid_blocks / (num_sms * blocks_per_sm))
            wave_bound = waves * self.work_per_block / issue_throughput
        else:
            wave_bound = self.work_per_block / issue_throughput
        return max(compute_bound, wave_bound, dram_bound)


@dataclass(frozen=True)
class KernelLaunch:
    """One dynamic kernel invocation submitted to the simulator.

    Attributes:
        kernel: the static kernel descriptor.
        instance_id: unique identity of this launch within a workload.
        copy_id: redundancy copy index (0 = primary, 1 = redundant, ...).
        arrival_offset: cycles added after the launch becomes *ready*.
            For a launch without dependencies, readiness is time 0, so this
            is the absolute arrival time at the GPU's kernel scheduler.
        depends_on: instance ids that must complete before this launch is
            dispatched (models in-stream ordering of multi-kernel apps).
        logical_id: identity of the *logical* computation; the redundant
            copies of one computation share a ``logical_id`` so traces and
            comparators can pair them up.
        tag: free-form label (e.g. benchmark name) carried into traces.
    """

    kernel: KernelDescriptor
    instance_id: int
    copy_id: int = 0
    arrival_offset: float = 0.0
    depends_on: Tuple[int, ...] = ()
    logical_id: Optional[int] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.instance_id < 0:
            raise ConfigurationError("instance_id must be non-negative")
        if self.copy_id < 0:
            raise ConfigurationError("copy_id must be non-negative")
        if self.arrival_offset < 0:
            raise ConfigurationError("arrival_offset cannot be negative")
        if self.instance_id in self.depends_on:
            raise ConfigurationError("a launch cannot depend on itself")
        if self.logical_id is None:
            object.__setattr__(self, "logical_id", self.instance_id)


def dependent_chain(kernels: Sequence[KernelDescriptor], *, copy_id: int = 0,
                    first_instance_id: int = 0, logical_base: int = 0,
                    gap: float = 0.0, tag: str = "") -> list:
    """Build a serially-dependent chain of launches (a single CUDA stream).

    Launch *i+1* depends on launch *i*; the first launch is ready at time 0
    (plus ``gap``).  ``logical_base + i`` is assigned as the logical id so a
    redundant chain built with the same base pairs up launch-by-launch.

    Returns:
        list[KernelLaunch] in submission order.
    """
    launches = []
    prev: Optional[int] = None
    for i, kd in enumerate(kernels):
        iid = first_instance_id + i
        launches.append(
            KernelLaunch(
                kernel=kd,
                instance_id=iid,
                copy_id=copy_id,
                arrival_offset=gap,
                depends_on=(prev,) if prev is not None else (),
                logical_id=logical_base + i,
                tag=tag,
            )
        )
        prev = iid
    return launches
