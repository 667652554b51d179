"""Diverse kernel generation — the paper's future work, implemented.

Section IV-A: "one could create different kernel grids so that thread
blocks across redundant kernels differ to introduce some form of
diversity. However, the lack of control on the global kernel scheduler
... prevents from guaranteeing specific diversity levels ... Therefore,
in this work we do not study diverse kernel generation, which is part of
our future work."

This module implements that idea as a *structural* diversity mechanism,
orthogonal to the scheduling policies: the redundant copy executes a
**reshaped grid** — each original thread block is split into ``factor``
finer blocks covering the same computation.  The two copies then never
execute the same instruction sequence at the same phase, so a
common-cause fault corrupts them *differently by construction*, even
under the unconstrained default scheduler; the DCLS host reduces the fine
copy's outputs back to original-block granularity before comparison.

Trade-offs faithfully modelled:

* the reshaped copy pays more scheduling overhead (more blocks) and can
  have different occupancy behaviour;
* comparison needs the reduction step (extra DCLS work);
* reshaping requires the kernel to be *divisible* (block-independent
  work) — kernels with per-block shared-memory coupling cannot always be
  split, which is why the paper treats this as future work rather than
  the default mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import RedundancyError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.scheduler.registry import make_scheduler
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.redundancy.comparison import (
    ComparisonResult,
    OutputSignature,
    Token,
    build_signature,
)

__all__ = [
    "reshape_kernel",
    "reduce_signature",
    "DiverseGridResult",
    "DiverseGridManager",
]


def reshape_kernel(kernel: KernelDescriptor, factor: int,
                   name_suffix: str = "#fine") -> KernelDescriptor:
    """Split every thread block of ``kernel`` into ``factor`` finer blocks.

    The reshaped kernel covers the same computation: the grid grows by
    ``factor`` while per-block compute work, memory traffic and thread
    count shrink by it.  Register usage per thread is unchanged.

    Args:
        kernel: the original (coarse) kernel.
        factor: sub-blocks per original block (>= 2 for diversity).

    Raises:
        RedundancyError: when the block cannot be split (fewer threads
            than ``factor``, or indivisible thread count) — the model's
            stand-in for kernels whose code cannot be re-tiled.
    """
    if factor < 2:
        raise RedundancyError("reshape factor must be >= 2 for diversity")
    if kernel.threads_per_block % factor != 0:
        raise RedundancyError(
            f"{kernel.name}: {kernel.threads_per_block} threads/block not "
            f"divisible by factor {factor}"
        )
    fine_threads = kernel.threads_per_block // factor
    if fine_threads < 1:
        raise RedundancyError(f"{kernel.name}: too few threads to split")
    return KernelDescriptor(
        name=kernel.name + name_suffix,
        grid_blocks=kernel.grid_blocks * factor,
        threads_per_block=fine_threads,
        regs_per_thread=kernel.regs_per_thread,
        shared_mem_per_block=max(1, kernel.shared_mem_per_block // factor)
        if kernel.shared_mem_per_block else 0,
        work_per_block=kernel.work_per_block / factor,
        bytes_per_block=kernel.bytes_per_block / factor,
        output_bytes=kernel.output_bytes,
        input_bytes=kernel.input_bytes,
    )


def reduce_signature(fine: OutputSignature, factor: int) -> Tuple[Token, ...]:
    """Reduce a fine-grid signature to original-block granularity.

    Each coarse token merges its ``factor`` sub-block tokens: all-clean
    sub-blocks reduce to the canonical ``("ok", logical, coarse_index)``
    token; any corrupted sub-block yields an error token carrying the
    frozen set of sub-block corruptions (order-independent).

    Raises:
        RedundancyError: when the fine grid is not a multiple of factor.
    """
    if len(fine.tokens) % factor != 0:
        raise RedundancyError(
            f"fine grid of {len(fine.tokens)} blocks is not a multiple "
            f"of factor {factor}"
        )
    reduced: List[Token] = []
    for coarse_index in range(len(fine.tokens) // factor):
        group = fine.tokens[coarse_index * factor:(coarse_index + 1) * factor]
        errors = tuple(sorted(
            (t for t in group if t[0] == "err"), key=repr
        ))
        if errors:
            reduced.append(("err", "reduced", errors))
        else:
            reduced.append(("ok", fine.logical_id, coarse_index))
    return tuple(reduced)


@dataclass(frozen=True)
class DiverseGridResult:
    """Outcome of one structurally-diverse redundant execution.

    Attributes:
        sim: the simulation (coarse copy = copy 0, fine copy = copy 1).
        comparisons: per-logical-kernel comparison at coarse granularity.
    """

    sim: SimulationResult
    comparisons: Tuple[ComparisonResult, ...]

    @property
    def error_detected(self) -> bool:
        """True when the reduced comparison flagged a mismatch."""
        return any(c.error_detected for c in self.comparisons)

    @property
    def silent_corruption(self) -> bool:
        """True when identical corruption survived the reduction."""
        return any(c.silent_corruption for c in self.comparisons)

    @property
    def all_clean(self) -> bool:
        """True when outputs agree and are uncorrupted."""
        return not self.error_detected and not self.silent_corruption


class DiverseGridManager:
    """Redundant execution with a grid-reshaped second copy.

    Args:
        gpu: GPU configuration.
        policy: scheduling policy (structural diversity works even with
            ``"default"`` — that is its selling point).
        factor: reshape factor of the redundant copy.
    """

    def __init__(self, gpu: GPUConfig,
                 policy: str | KernelScheduler = "default", *,
                 factor: int = 2) -> None:
        if factor < 2:
            raise RedundancyError("reshape factor must be >= 2")
        self._gpu = gpu
        self._scheduler = (
            make_scheduler(policy) if isinstance(policy, str) else policy
        )
        self._factor = factor

    def build_workload(self, kernels) -> List[KernelLaunch]:
        """Interleaved launches: coarse copy 0, reshaped copy 1."""
        launches: List[KernelLaunch] = []
        for i, kd in enumerate(kernels):
            fine = reshape_kernel(kd, self._factor)
            for copy_id, descriptor in ((0, kd), (1, fine)):
                deps = ((i - 1) * 2 + copy_id,) if i else ()
                launches.append(
                    KernelLaunch(
                        kernel=descriptor,
                        instance_id=i * 2 + copy_id,
                        copy_id=copy_id,
                        depends_on=deps,
                        logical_id=i,
                    )
                )
        return launches

    def run(self, kernels, *,
            corruption: Optional[Dict[Tuple[int, int], Tuple]] = None
            ) -> DiverseGridResult:
        """Execute and compare at coarse granularity.

        Args:
            kernels: the application's (coarse) kernel chain.
            corruption: fault-effect map over ``(instance_id, tb_index)``
                — fine-copy indices refer to the reshaped grid.
        """
        launches = self.build_workload(kernels)
        sim = GPUSimulator(self._gpu, self._scheduler).run(launches)

        comparisons: List[ComparisonResult] = []
        for i in range(len(kernels)):
            coarse_sig = build_signature(sim.trace, i * 2, corruption)
            fine_sig = build_signature(sim.trace, i * 2 + 1, corruption)
            reduced = reduce_signature(fine_sig, self._factor)

            mismatching = []
            agreeing_corrupt = []
            for tb, (a, b) in enumerate(zip(coarse_sig.tokens, reduced)):
                a_err = a[0] == "err"
                b_err = b[0] == "err"
                if a_err != b_err:
                    mismatching.append(tb)
                elif a_err and b_err:
                    # both corrupted: identical only if the corruption
                    # payloads coincide — structurally impossible for
                    # real CCFs on differing grids, but checked anyway
                    if a == b:
                        agreeing_corrupt.append(tb)
                    else:
                        mismatching.append(tb)
            comparisons.append(
                ComparisonResult(
                    logical_id=i,
                    copies=(0, 1),
                    mismatching_blocks=tuple(mismatching),
                    agreeing_corrupt_blocks=tuple(agreeing_corrupt),
                )
            )
        return DiverseGridResult(sim=sim, comparisons=tuple(comparisons))
