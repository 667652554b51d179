"""Baseline (unconstrained) kernel scheduler.

Models the stock GPGPU-Sim / COTS behaviour the paper compares against:
kernels are admitted as soon as they arrive, any SM may be used, and thread
blocks are placed on the least-loaded SM.  Redundant kernel copies may
therefore co-reside on the same SM and execute the same thread block at
overlapping times — which is precisely the common-cause-fault exposure the
paper's policies eliminate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.gpu.kernel import KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler, SchedulerView, least_loaded

__all__ = ["DefaultScheduler"]


class DefaultScheduler(KernelScheduler):
    """Greedy least-loaded placement over all SMs, immediate admission.

    The tie-break (lowest SM id) makes runs fully deterministic, which the
    fault-injection campaigns rely on: a single simulation per policy is
    reused for every injected fault.
    """

    name = "default"
    strict_fifo = False

    def select_sm(self, launch: KernelLaunch, candidates: Sequence[int],
                  view: SchedulerView) -> Optional[int]:
        """Pick the candidate SM with the fewest resident blocks (lowest
        SM id on ties); runs once per placed thread block."""
        return least_loaded(candidates, view)
