"""HALF — the paper's SM-partitioning scheduling policy.

Section IV-B.2: allocate half of the SMs to one redundant kernel copy and
the other half to the other copy.  Different SMs are then used by
construction; the serial dispatch of kernels from the host (the GPU's
command path processes launches one at a time) guarantees the two copies
never execute the same computation at the same instant, so a transient
common-cause fault cannot corrupt both copies identically.

The implementation generalizes "half" to *k* equal partitions so the same
policy serves TMR (three copies) and sweep experiments; ``partitions=2``
reproduces the paper exactly.  Within its partition a launch uses the same
least-loaded placement as the default scheduler — the paper leaves intra-
partition placement to the stock policy ("we use the default scheduling
policy ... and restrict each kernel execution to 3 dedicated SMs").
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler, SchedulerView, least_loaded

__all__ = ["HALFScheduler"]


class HALFScheduler(KernelScheduler):
    """Static SM partitioning by redundancy copy.

    Args:
        partitions: number of equal SM groups; copy ``c`` is confined to
            partition ``c mod partitions``.  Must not exceed the SM count
            (checked at :meth:`reset`).
    """

    name = "half"
    strict_fifo = False

    def __init__(self, partitions: int = 2) -> None:
        super().__init__()
        if partitions < 2:
            raise ConfigurationError(
                "HALF needs >= 2 partitions to separate redundant copies"
            )
        self._partitions = partitions

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> int:
        """Number of SM partitions."""
        return self._partitions

    def reset(self, gpu: GPUConfig) -> None:
        """Bind to a GPU, checking every partition is non-empty."""
        super().reset(gpu)
        if self._partitions > gpu.num_sms:
            raise ConfigurationError(
                f"cannot split {gpu.num_sms} SMs into {self._partitions} "
                "non-empty partitions"
            )

    def partition_of(self, copy_id: int) -> int:
        """Partition index assigned to a redundancy copy."""
        return copy_id % self._partitions

    def partition_sms(self, partition: int) -> Tuple[int, ...]:
        """SM ids of one partition (contiguous ranges, remainder spread
        over the first partitions)."""
        num_sms = self.gpu.num_sms
        base, extra = divmod(num_sms, self._partitions)
        start = partition * base + min(partition, extra)
        size = base + (1 if partition < extra else 0)
        return tuple(range(start, start + size))

    # ------------------------------------------------------------------
    def allowed_sms(self, launch: KernelLaunch) -> Tuple[int, ...]:
        """The partition of the launch's redundancy copy."""
        return self.partition_sms(self.partition_of(launch.copy_id))

    def select_sm(self, launch: KernelLaunch, candidates: Sequence[int],
                  view: SchedulerView) -> Optional[int]:
        """Least-loaded placement within the copy's partition."""
        return least_loaded(candidates, view)

    def describe(self) -> str:
        """One-line description including the partition count."""
        return f"half(partitions={self._partitions})"
