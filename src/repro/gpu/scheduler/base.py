"""Kernel-scheduler interface.

The paper's contribution is a pair of *global kernel scheduler* policies
(SRRS and HALF) that constrain (a) **when** a kernel may start dispatching
thread blocks and (b) **which SM** each thread block is placed on.  The
simulator delegates exactly those two decisions to a
:class:`KernelScheduler`, mirroring the hardware split between the global
kernel scheduler and the SMs in Figure 2 of the paper.

The scheduler observes the machine through a narrow read-only
:class:`SchedulerView` protocol so that policies cannot mutate simulator
state — scheduler *faults* are modelled separately by wrapping a policy
(see :mod:`repro.faults.scheduler_faults`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Protocol, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelLaunch

__all__ = ["SchedulerView", "KernelScheduler", "least_loaded"]


class SchedulerView(Protocol):
    """Read-only view of the simulator state exposed to schedulers."""

    @property
    def gpu(self) -> GPUConfig:
        """The simulated GPU configuration."""
        ...

    def resident_counts(self) -> Sequence[int]:
        """Resident block count of every SM, indexed by SM id.

        The sequence is *live* for the whole run (it tracks placements
        and completions without being fetched again) and *read-only*:
        schedulers must never mutate it.  ``resident_counts()[sm]`` is
        the number of thread blocks currently resident on ``sm``.
        """
        ...

    def resident_blocks_of(self, sm: int, instance_id: int) -> int:
        """Resident blocks of a specific launch on ``sm``."""
        ...

    def is_idle(self) -> bool:
        """True when no thread block is resident on any SM."""
        ...

    def incomplete_before(self, launch: KernelLaunch) -> bool:
        """True when an earlier-arrived launch has not yet completed."""
        ...

    def now(self) -> float:
        """Current simulation time in cycles."""
        ...


def least_loaded(candidates: Sequence[int], view: SchedulerView) -> int:
    """The candidate SM with the fewest resident blocks.

    Candidates are ascending (the :meth:`KernelScheduler.select_sm`
    contract) and ``min`` keeps the first minimum, so ties go to the
    lowest SM id -- the deterministic tie-break fault campaigns rely on.
    One ``min`` over the live count vector costs a C-level index per
    candidate, not a Python call.
    """
    return min(candidates, key=view.resident_counts().__getitem__)


class KernelScheduler(ABC):
    """Abstract global kernel scheduler.

    Subclasses implement the three policy decisions:

    * :meth:`may_start` — admission: may an arrived launch begin dispatching
      thread blocks *now*?  (SRRS answers "only when the GPU is idle and no
      earlier launch is unfinished".)
    * :meth:`allowed_sms` — static SM mask for a launch.  (HALF answers
      "the partition assigned to this redundancy copy".)
    * :meth:`select_sm` — pick the SM for the *next* thread block among the
      candidates that currently have capacity.  (SRRS answers "round-robin
      from a copy-specific starting SM".)

    Attributes:
        name: registry key and report label.
        strict_fifo: when True the simulator will not consider any launch
            behind an unfinished one (the paper's "no further kernel can be
            executed in the GPU until the second one also finishes").
    """

    name: str = "abstract"
    strict_fifo: bool = False

    def __init__(self) -> None:
        self._gpu: Optional[GPUConfig] = None

    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GPUConfig:
        """GPU this scheduler was bound to via :meth:`reset`."""
        if self._gpu is None:
            raise ConfigurationError(
                f"scheduler {self.name!r} used before reset(gpu)"
            )
        return self._gpu

    def reset(self, gpu: GPUConfig) -> None:
        """Bind to a GPU and clear per-run state.

        The simulator calls this once at the start of every run, so a single
        scheduler object can be reused across simulations.
        """
        self._gpu = gpu

    # ------------------------------------------------------------------
    # policy decisions
    # ------------------------------------------------------------------
    def may_start(self, launch: KernelLaunch, view: SchedulerView) -> bool:
        """Admission decision for an arrived, not-yet-started launch."""
        return True

    def allowed_sms(self, launch: KernelLaunch) -> Tuple[int, ...]:
        """SMs this launch's thread blocks may ever use.

        The mask is a *static* per-launch property: the simulator queries
        it once per launch per run (at workload precheck), validates it,
        and caches the deduplicated, ascending result for all subsequent
        placement decisions.  Masks that vary over a run would be silently
        ignored — encode time-varying behaviour in :meth:`may_start` /
        :meth:`select_sm` instead.
        """
        return tuple(self.gpu.sm_ids)

    def earliest_start(self, launch: KernelLaunch,
                       view: SchedulerView) -> Optional[float]:
        """Future time at which :meth:`may_start` may flip to True.

        Policies whose admission is gated on *time* (rather than on GPU
        state changes, which generate their own events) must return that
        time so the simulator can schedule a retry; returning ``None``
        means "no time-based gate" (the default).
        """
        return None

    @abstractmethod
    def select_sm(self, launch: KernelLaunch, candidates: Sequence[int],
                  view: SchedulerView) -> Optional[int]:
        """Choose the SM for the launch's next thread block.

        Args:
            launch: the launch being dispatched.
            candidates: non-empty subset of :meth:`allowed_sms` that
                currently has capacity for one more block of this kernel,
                in ascending SM order.  The sequence is only valid for the
                duration of the call (the simulator maintains it
                incrementally across placements) — copy it if you must
                retain it.
            view: read-only simulator state.

        Returns:
            The chosen SM id (must be in ``candidates``), or ``None`` to
            decline placement for now.
        """

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def on_kernel_start(self, launch: KernelLaunch, view: SchedulerView) -> None:
        """Called when the launch's first thread block is about to place."""

    def on_kernel_complete(self, launch: KernelLaunch, view: SchedulerView) -> None:
        """Called when the launch's last thread block completed."""

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable description for reports."""
        return self.name
