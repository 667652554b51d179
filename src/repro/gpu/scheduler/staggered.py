"""STAGGER — an ablation policy: enforced temporal stagger only.

Not proposed by the paper; included to *isolate* the two ingredients of
its diversity argument.  STAGGER delays every redundancy copy's kernel
start until a minimum stagger after the previous copy of the same
logical kernel started, but places blocks with the unconstrained default
heuristic (copies may share SMs).

Consequences, demonstrated by the fault-coverage ablation
(``benchmarks/bench_diversity_mechanisms.py``) and the property tests:

* permanent SM faults leak — redundant copies can still co-locate on the
  defective SM;
* even the transient protection is *not guaranteed*: the kernel-start
  stagger does not bound per-block phase distance, because co-residency
  changes the copies' progress rates and phases can cross mid-flight
  (deterministic witness in ``tests/test_properties_extended.py``).

Both gaps are closed by SRRS/HALF, which control **where** as well as
**when** — the reason the paper proposes scheduler policies instead of
mere staggering.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler, SchedulerView, least_loaded

__all__ = ["StaggeredScheduler"]


class StaggeredScheduler(KernelScheduler):
    """Default placement plus an enforced minimum inter-copy stagger.

    Copy ``c`` of logical kernel ``l`` may not start until copy ``c-1``
    of ``l`` started at least ``min_stagger`` cycles ago (copy 0 is
    unconstrained).

    Args:
        min_stagger: enforced stagger in cycles; must be positive (zero
            would degenerate to the default policy).
    """

    name = "staggered"
    strict_fifo = False

    def __init__(self, min_stagger: float = 2000.0) -> None:
        super().__init__()
        if min_stagger <= 0:
            raise ConfigurationError("min_stagger must be positive")
        self._min_stagger = min_stagger
        self._start_times: Dict[Tuple[int, int], float] = {}

    @property
    def min_stagger(self) -> float:
        """Enforced stagger in cycles."""
        return self._min_stagger

    def reset(self, gpu: GPUConfig) -> None:
        """Bind to a GPU and clear recorded start times."""
        super().reset(gpu)
        self._start_times = {}

    def may_start(self, launch: KernelLaunch, view: SchedulerView) -> bool:
        """Admit once the previous copy's start is old enough."""
        if launch.copy_id == 0:
            return True
        prev_key = (launch.logical_id or 0, launch.copy_id - 1)
        prev_start = self._start_times.get(prev_key)
        if prev_start is None:
            return False
        return view.now() >= prev_start + self._min_stagger

    def earliest_start(self, launch: KernelLaunch,
                       view: SchedulerView) -> Optional[float]:
        """Retry time for the simulator's event loop (time-gated policy)."""
        if launch.copy_id == 0:
            return None
        prev_key = (launch.logical_id or 0, launch.copy_id - 1)
        prev_start = self._start_times.get(prev_key)
        if prev_start is None:
            return None  # unblocked by the predecessor's start event
        return prev_start + self._min_stagger

    def on_kernel_start(self, launch: KernelLaunch, view: SchedulerView) -> None:
        """Record the copy's start time for its successors."""
        key = (launch.logical_id or 0, launch.copy_id)
        self._start_times[key] = view.now()

    def select_sm(self, launch: KernelLaunch, candidates: Sequence[int],
                  view: SchedulerView) -> Optional[int]:
        """Unconstrained least-loaded placement (the point of the
        ablation: no spatial control)."""
        return least_loaded(candidates, view)

    def describe(self) -> str:
        """Label including the stagger parameter."""
        return f"staggered(min_stagger={self._min_stagger:.0f})"
