"""Kernel-scheduler fault injection (paper Section IV-C).

The global kernel scheduler has no redundancy, so the paper analyses what
happens when *it* misbehaves, enumerating three consequences:

1. execution lands on unintended SMs but remains functionally correct
   **and diverse** — no failure;
2. execution is functionally correct but **diversity is lost** (e.g. both
   copies of a block on the same SM) — harmless for this run (single-fault
   hypothesis: the remaining hardware is fault-free), but the scheduler
   fault must not become *latent*, hence periodic scheduler tests;
3. execution does not terminate or loses work (e.g. a skipped thread
   block) — the copies behave differently, so the error is detected.

This module provides:

* :class:`FaultySchedulerWrapper` — wraps a policy and perturbs its SM
  selections (mis-placement faults);
* :func:`classify_scheduler_fault` — maps a perturbed run onto the paper's
  outcome classes 1/2/3;
* :func:`audit_placement` — the *periodic scheduler test*: re-derives the
  expected placement with a healthy policy instance and reports
  deviations, which is what keeps class-2 faults from becoming latent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler, SchedulerView
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import ExecutionTrace
from repro.redundancy.diversity import analyze_diversity
from repro.redundancy.manager import RedundantRunResult

__all__ = [
    "SchedulerFaultKind",
    "SchedulerFault",
    "FaultySchedulerWrapper",
    "SchedulerFaultOutcome",
    "classify_scheduler_fault",
    "audit_placement",
]


class SchedulerFaultKind(enum.Enum):
    """Modelled scheduler misbehaviours."""

    #: pick a different candidate SM than the policy intended.
    MISPLACE = "misplace"
    #: stick every selection of the target launch to one SM.
    PIN_TO_SM = "pin-to-sm"


@dataclass(frozen=True)
class SchedulerFault:
    """One scheduler fault to inject.

    Attributes:
        kind: misbehaviour type.
        target_instance: launch whose placement decisions are perturbed
            (``None`` = every launch).
        from_decision: first decision index (per launch) to perturb.
        pin_sm: for PIN_TO_SM, the SM every decision is steered to (when
            it has capacity; otherwise the policy's choice stands).
    """

    kind: SchedulerFaultKind
    target_instance: Optional[int] = None
    from_decision: int = 0
    pin_sm: int = 0

    def __post_init__(self) -> None:
        if self.from_decision < 0:
            raise FaultInjectionError("decision index cannot be negative")
        if self.pin_sm < 0:
            raise FaultInjectionError("pin SM cannot be negative")


class FaultySchedulerWrapper(KernelScheduler):
    """Wraps a policy, perturbing its ``select_sm`` answers.

    The wrapper only ever returns *candidate* SMs, so the simulator's
    resource invariants hold; what breaks is the *policy intent*
    (diversity), exactly like a real placement-logic fault.
    """

    def __init__(self, inner: KernelScheduler, fault: SchedulerFault) -> None:
        super().__init__()
        self._inner = inner
        self._fault = fault
        self._decisions: Dict[int, int] = {}
        self.name = f"faulty({inner.name})"
        self.strict_fifo = inner.strict_fifo

    # -- delegate lifecycle -------------------------------------------
    def reset(self, gpu: GPUConfig) -> None:
        """Reset both wrapper bookkeeping and the wrapped policy."""
        super().reset(gpu)
        self._inner.reset(gpu)
        self._decisions = {}

    def may_start(self, launch: KernelLaunch, view: SchedulerView) -> bool:
        """Delegate admission to the wrapped policy."""
        return self._inner.may_start(launch, view)

    def allowed_sms(self, launch: KernelLaunch) -> Tuple[int, ...]:
        """A faulty scheduler is not bound by the policy's mask.

        Placement faults can escape the intended partition (that is the
        point), so the wrapper widens the mask to the whole GPU while the
        *selection* still starts from the healthy policy's answer.
        """
        return tuple(self.gpu.sm_ids)

    def on_kernel_start(self, launch: KernelLaunch, view: SchedulerView) -> None:
        """Delegate to the wrapped policy."""
        self._inner.on_kernel_start(launch, view)

    def on_kernel_complete(self, launch: KernelLaunch, view: SchedulerView) -> None:
        """Delegate to the wrapped policy."""
        self._inner.on_kernel_complete(launch, view)

    # -- the fault ------------------------------------------------------
    def _targets(self, launch: KernelLaunch) -> bool:
        fault = self._fault
        if fault.target_instance is not None and launch.instance_id != fault.target_instance:
            return False
        count = self._decisions.get(launch.instance_id, 0)
        return count >= fault.from_decision

    def select_sm(self, launch: KernelLaunch, candidates: Sequence[int],
                  view: SchedulerView) -> Optional[int]:
        """Perturb the healthy policy's selection per the fault model."""
        self._decisions[launch.instance_id] = (
            self._decisions.get(launch.instance_id, 0) + 1
        )
        allowed = set(self._inner.allowed_sms(launch))
        healthy_candidates = [sm for sm in candidates if sm in allowed]
        healthy = (
            self._inner.select_sm(launch, healthy_candidates, view)
            if healthy_candidates
            else None
        )
        if not self._targets(launch):
            return healthy if healthy is not None else candidates[0]

        if self._fault.kind is SchedulerFaultKind.PIN_TO_SM:
            if self._fault.pin_sm in candidates:
                return self._fault.pin_sm
            return healthy if healthy is not None else candidates[0]

        # MISPLACE: rotate away from the healthy answer
        if healthy is None:
            return candidates[0]
        others = [sm for sm in candidates if sm != healthy]
        return others[0] if others else healthy

    def describe(self) -> str:
        """Label including the injected fault."""
        return f"{self._inner.describe()}+{self._fault.kind.value}"


class SchedulerFaultOutcome(enum.Enum):
    """The paper's three consequences of a kernel-scheduler fault."""

    #: (1) functionally correct, diversity preserved — no failure.
    CORRECT_DIVERSE = "correct-and-diverse"
    #: (2) functionally correct, diversity lost — needs the periodic test.
    CORRECT_NOT_DIVERSE = "correct-but-not-diverse"
    #: (3) functional misbehaviour — detected via differing outputs.
    FUNCTIONAL_ERROR = "functional-error-detected"


def classify_scheduler_fault(run: RedundantRunResult) -> SchedulerFaultOutcome:
    """Map a perturbed redundant run onto the paper's outcome classes.

    Functional misbehaviour (class 3) shows as a comparison mismatch or
    missing results; otherwise the diversity report distinguishes classes
    1 and 2.
    """
    if run.error_detected or run.silent_corruption:
        return SchedulerFaultOutcome.FUNCTIONAL_ERROR
    if run.diversity.fully_diverse:
        return SchedulerFaultOutcome.CORRECT_DIVERSE
    return SchedulerFaultOutcome.CORRECT_NOT_DIVERSE


@dataclass(frozen=True)
class PlacementDeviation:
    """One divergence between observed and expected placement."""

    instance_id: int
    tb_index: int
    expected_sm: int
    observed_sm: int


def audit_placement(observed: ExecutionTrace, gpu: GPUConfig,
                    healthy_policy: KernelScheduler,
                    launches: Sequence[KernelLaunch]
                    ) -> List[PlacementDeviation]:
    """The periodic scheduler self-test (Section IV-C).

    Re-executes the workload with a healthy policy instance and compares
    block-to-SM assignments.  Any deviation reveals a (possibly latent)
    scheduler fault; ISO 26262 requires this check to run periodically so
    that a class-2 fault (diversity silently lost) is repaired before a
    second, independent fault can exploit it.

    Returns:
        All placement deviations (empty = scheduler healthy).
    """
    expected = GPUSimulator(gpu, healthy_policy).run(launches).trace
    deviations: List[PlacementDeviation] = []
    expected_sm, observed_sm = expected.columns.sm, observed.columns.sm
    tb_index = expected.columns.tb_index
    for iid in expected.instance_ids:
        for er, orow in zip(expected.rows_of(iid), observed.rows_of(iid)):
            if expected_sm[er] != observed_sm[orow]:
                deviations.append(
                    PlacementDeviation(
                        instance_id=iid,
                        tb_index=tb_index[er],
                        expected_sm=expected_sm[er],
                        observed_sm=observed_sm[orow],
                    )
                )
    return deviations
