"""Reference GPU simulator core — the differential-testing oracle.

This module retains the pre-optimisation structure of
:class:`repro.gpu.simulator.GPUSimulator`: every event rescans all
resident thread blocks to find the next work-dimension completion, and all
launch states to find the next arrival — O(resident + launches) per event.
It implements the *same* virtual-time (fair-queuing) semantics as the
production core, expression-for-expression:

* the per-SM compute clock and the global memory clock advance by
  ``(throughput / active) * dt`` per event;
* a block's work dimension drains when its fixed finish key ``F``
  satisfies ``F - clock <= eps``;
* the next completion candidate of a dimension is
  ``now + (F_min - clock) / (throughput / active)``.

Because the production core evaluates exactly these expressions (reading
``F_min`` from a never-re-keyed min-heap instead of a scan, and the active
counts from counters instead of recounting), the two cores must produce
**bit-identical** traces, event counts and scheduler call sequences on any
workload.  ``tests/gpu/test_simulator_equivalence.py`` enforces this on
randomized workloads across every registered scheduling policy; any
divergence pinpoints a bug in the incremental bookkeeping (heaps, counters,
release log, reverse-dependency map) of the production core.

This simulator is intentionally simple, not fast.  Do not use it in
experiments; use :class:`repro.gpu.simulator.GPUSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.simulator import SimulationResult
from repro.gpu.trace import ExecutionTrace, KernelSpan

__all__ = ["ReferenceSimulator"]

_EPS = 1e-9


@dataclass
class _RefTB:
    """Mutable state of one thread block resident on an SM."""

    launch: KernelLaunch
    tb_index: int
    sm: int
    start: float
    compute_active: bool
    memory_active: bool
    compute_finish: float = 0.0
    memory_finish: float = 0.0

    @property
    def done(self) -> bool:
        """True once both work dimensions have drained."""
        return not self.compute_active and not self.memory_active

    @property
    def key(self) -> Tuple[int, int]:
        """Stable identity ``(instance_id, tb_index)`` of this block."""
        return (self.launch.instance_id, self.tb_index)


@dataclass
class _RefSMState:
    """Mutable resource accounting of one SM (scan-based residency)."""

    free_threads: int
    free_registers: int
    free_shared_memory: int
    free_blocks: int
    virtual: float = 0.0
    resident: Dict[Tuple[int, int], _RefTB] = field(default_factory=dict)

    def fits(self, kernel: KernelDescriptor) -> bool:
        """True when one more block of ``kernel`` fits on this SM."""
        return (
            self.free_blocks >= 1
            and self.free_threads >= kernel.threads_per_block
            and self.free_registers
            >= kernel.regs_per_thread * kernel.threads_per_block
            and self.free_shared_memory >= kernel.shared_mem_per_block
        )

    def take(self, kernel: KernelDescriptor) -> None:
        """Debit one block's worth of ``kernel`` resources."""
        self.free_blocks -= 1
        self.free_threads -= kernel.threads_per_block
        self.free_registers -= kernel.regs_per_thread * kernel.threads_per_block
        self.free_shared_memory -= kernel.shared_mem_per_block

    def release(self, kernel: KernelDescriptor) -> None:
        """Credit one block's worth of ``kernel`` resources back."""
        self.free_blocks += 1
        self.free_threads += kernel.threads_per_block
        self.free_registers += kernel.regs_per_thread * kernel.threads_per_block
        self.free_shared_memory += kernel.shared_mem_per_block


@dataclass
class _RefLaunchState:
    """Mutable per-launch bookkeeping."""

    launch: KernelLaunch
    remaining_deps: Set[int]
    arrival: Optional[float] = None
    started: bool = False
    first_dispatch: Optional[float] = None
    next_tb: int = 0
    resident_count: int = 0
    completion: Optional[float] = None
    allowed: Tuple[int, ...] = ()

    @property
    def kernel(self) -> KernelDescriptor:
        """The launch's kernel descriptor."""
        return self.launch.kernel

    @property
    def all_dispatched(self) -> bool:
        """True once every grid block has been placed on some SM."""
        return self.next_tb >= self.kernel.grid_blocks

    @property
    def complete(self) -> bool:
        """True once every block of the launch has finished."""
        return self.completion is not None


class ReferenceSimulator:
    """Scan-per-event reference implementation of the GPU simulator.

    Drop-in compatible with :class:`repro.gpu.simulator.GPUSimulator`
    (same constructor, :meth:`run` signature, SchedulerView protocol and
    :class:`SimulationResult` output) but with every per-event decision
    derived by a straightforward full rescan.
    """

    def __init__(self, gpu: GPUConfig, scheduler: KernelScheduler,
                 *, validate: bool = True) -> None:
        self._gpu = gpu
        self._scheduler = scheduler
        self._validate = validate
        self._now = 0.0
        self._sms: List[_RefSMState] = []
        self._resident_counts: List[int] = []
        self._states: Dict[int, _RefLaunchState] = {}
        self._order: List[int] = []
        self._resident: Dict[Tuple[int, int], _RefTB] = {}
        self._mem_virtual = 0.0
        self._last_dispatch_time: Optional[float] = None
        self._trace: Optional[ExecutionTrace] = None
        self._events = 0

    # ------------------------------------------------------------------
    # SchedulerView protocol
    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GPUConfig:
        """Simulated GPU configuration (SchedulerView)."""
        return self._gpu

    def resident_counts(self) -> Sequence[int]:
        """Resident block counts by SM id (SchedulerView), re-derived from
        each SM's resident-block map whenever a block lands or retires."""
        return self._resident_counts

    def resident_blocks_of(self, sm: int, instance_id: int) -> int:
        """Resident blocks of a launch on one SM (SchedulerView)."""
        return sum(
            1
            for tb in self._sms[sm].resident.values()
            if tb.launch.instance_id == instance_id
        )

    def is_idle(self) -> bool:
        """True when no block is resident anywhere (SchedulerView)."""
        return not self._resident

    def incomplete_before(self, launch: KernelLaunch) -> bool:
        """True when a launch submitted earlier has not completed
        (SchedulerView)."""
        for iid in self._order:
            if iid == launch.instance_id:
                return False
            if not self._states[iid].complete:
                return True
        return False

    def now(self) -> float:
        """Current simulation time in cycles (SchedulerView)."""
        return self._now

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def run(self, launches: Sequence[KernelLaunch]) -> SimulationResult:
        """Simulate a workload to completion (see ``GPUSimulator.run``)."""
        self._reset(launches)
        self._precheck(launches)

        while True:
            self._try_placement()
            next_time = self._next_event_time()
            if next_time is None:
                break
            if next_time < self._now - _EPS:
                raise SimulationError(
                    f"time would move backwards: {next_time} < {self._now}"
                )
            self._advance(max(next_time, self._now))
            self._events += 1

        self._check_all_complete()
        trace = self._trace
        assert trace is not None
        if self._validate:
            trace.validate()
        return SimulationResult(
            trace=trace,
            makespan=trace.makespan,
            scheduler_name=self._scheduler.describe(),
            gpu=self._gpu,
            events=self._events,
        )

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _reset(self, launches: Sequence[KernelLaunch]) -> None:
        if not launches:
            raise ConfigurationError("workload must contain >= 1 launch")
        ids = [l.instance_id for l in launches]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate instance ids in workload")
        id_set = set(ids)
        seen: Set[int] = set()
        for launch in launches:
            for dep in launch.depends_on:
                if dep not in id_set:
                    raise ConfigurationError(
                        f"launch {launch.instance_id} depends on unknown "
                        f"instance {dep}"
                    )
                if dep not in seen:
                    raise ConfigurationError(
                        f"launch {launch.instance_id} depends on {dep}, "
                        "which is submitted later (streams submit in order)"
                    )
            seen.add(launch.instance_id)

        self._now = 0.0
        self._events = 0
        self._resident = {}
        self._mem_virtual = 0.0
        self._last_dispatch_time = None
        sm_cfg = self._gpu.sm
        self._sms = [
            _RefSMState(
                free_threads=sm_cfg.max_threads,
                free_registers=sm_cfg.registers,
                free_shared_memory=sm_cfg.shared_memory,
                free_blocks=sm_cfg.max_blocks,
            )
            for _ in self._gpu.sm_ids
        ]
        self._resident_counts = [0] * self._gpu.num_sms
        self._order = list(ids)
        self._states = {
            l.instance_id: _RefLaunchState(
                launch=l, remaining_deps=set(l.depends_on)
            )
            for l in launches
        }
        self._trace = ExecutionTrace(self._gpu.num_sms)
        self._scheduler.reset(self._gpu)
        for iid in self._order:
            st = self._states[iid]
            if not st.remaining_deps:
                self._assign_arrival(st, ready_at=0.0)

    def _precheck(self, launches: Sequence[KernelLaunch]) -> None:
        """Fail fast on unsatisfiable kernels; cache scheduler SM masks."""
        for launch in launches:
            blocks_per_sm(launch.kernel, self._gpu.sm)
            allowed = self._scheduler.allowed_sms(launch)
            if not allowed:
                raise CapacityError(
                    f"scheduler {self._scheduler.name!r} allows no SMs for "
                    f"launch {launch.instance_id} ({launch.kernel.name})"
                )
            for sm in allowed:
                if not (0 <= sm < self._gpu.num_sms):
                    raise SchedulingError(
                        f"scheduler allowed invalid SM {sm} for launch "
                        f"{launch.instance_id}"
                    )
            self._states[launch.instance_id].allowed = tuple(
                sorted(set(allowed))
            )

    def _assign_arrival(self, st: _RefLaunchState, ready_at: float) -> None:
        ready = ready_at + st.launch.arrival_offset
        if self._last_dispatch_time is None:
            arrival = ready
        else:
            arrival = max(ready, self._last_dispatch_time + self._gpu.dispatch_latency)
        st.arrival = arrival
        self._last_dispatch_time = arrival

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _candidate_sms(self, launch: KernelLaunch) -> List[int]:
        st = self._states[launch.instance_id]
        candidates = []
        for sm in st.allowed:
            state = self._sms[sm]
            if not state.fits(launch.kernel):
                continue
            if not self._gpu.allow_kernel_mixing:
                if any(
                    tb.launch.instance_id != launch.instance_id
                    for tb in state.resident.values()
                ):
                    continue
            candidates.append(sm)
        return candidates

    def _try_placement(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for iid in self._order:
                st = self._states[iid]
                if st.complete:
                    continue
                if st.arrival is None or st.arrival > self._now + _EPS:
                    if self._scheduler.strict_fifo:
                        break
                    continue
                if not st.all_dispatched:
                    if not st.started:
                        if not self._scheduler.may_start(st.launch, self):
                            if self._scheduler.strict_fifo:
                                break
                            continue
                        self._scheduler.on_kernel_start(st.launch, self)
                        st.started = True
                    progressed |= self._dispatch_blocks(st)
                if self._scheduler.strict_fifo and not st.complete:
                    break

    def _dispatch_blocks(self, st: _RefLaunchState) -> bool:
        placed_any = False
        while not st.all_dispatched:
            candidates = self._candidate_sms(st.launch)
            if not candidates:
                break
            sm = self._scheduler.select_sm(st.launch, candidates, self)
            if sm is None:
                break
            if sm not in candidates:
                raise SchedulingError(
                    f"scheduler {self._scheduler.name!r} selected SM {sm} "
                    f"outside candidates {candidates} for launch "
                    f"{st.launch.instance_id}"
                )
            self._place_tb(st, sm)
            placed_any = True
        return placed_any

    def _place_tb(self, st: _RefLaunchState, sm: int) -> None:
        kernel = st.kernel
        sm_state = self._sms[sm]
        sm_state.take(kernel)
        compute = float(kernel.work_per_block)
        memory = float(kernel.bytes_per_block)
        tb = _RefTB(
            launch=st.launch,
            tb_index=st.next_tb,
            sm=sm,
            start=self._now,
            compute_active=compute > _EPS,
            memory_active=memory > _EPS,
        )
        if tb.compute_active:
            tb.compute_finish = sm_state.virtual + compute
        if tb.memory_active:
            tb.memory_finish = self._mem_virtual + memory
        st.next_tb += 1
        st.resident_count += 1
        if st.first_dispatch is None:
            st.first_dispatch = self._now
        sm_state.resident[tb.key] = tb
        self._resident[tb.key] = tb
        self._resident_counts[sm] = len(sm_state.resident)

    # ------------------------------------------------------------------
    # fluid timing (virtual clocks, evaluated by full rescans)
    # ------------------------------------------------------------------
    def _next_event_time(self) -> Optional[float]:
        candidate: Optional[float] = None

        mem_active = sum(
            1 for tb in self._resident.values() if tb.memory_active
        )
        if mem_active:
            mem_rate = self._gpu.dram_bandwidth / mem_active
            for tb in self._resident.values():
                if tb.memory_active:
                    t = self._now + (tb.memory_finish - self._mem_virtual) / mem_rate
                    candidate = t if candidate is None else min(candidate, t)
        throughput = self._gpu.sm.issue_throughput
        for sm_state in self._sms:
            compute_active = sum(
                1 for tb in sm_state.resident.values() if tb.compute_active
            )
            if not compute_active:
                continue
            share = throughput / compute_active
            for tb in sm_state.resident.values():
                if tb.compute_active:
                    t = self._now + (tb.compute_finish - sm_state.virtual) / share
                    candidate = t if candidate is None else min(candidate, t)

        future_arrival: Optional[float] = None
        pending_work = False
        for st in self._states.values():
            if st.complete:
                continue
            pending_work = True
            if st.arrival is not None and st.arrival > self._now + _EPS:
                future_arrival = (
                    st.arrival
                    if future_arrival is None
                    else min(future_arrival, st.arrival)
                )
            elif st.arrival is not None and not st.started:
                retry = self._scheduler.earliest_start(st.launch, self)
                if retry is not None and retry > self._now + _EPS:
                    future_arrival = (
                        retry
                        if future_arrival is None
                        else min(future_arrival, retry)
                    )
        if future_arrival is not None:
            candidate = (
                future_arrival
                if candidate is None
                else min(candidate, future_arrival)
            )

        if candidate is None and pending_work:
            self._diagnose_deadlock()
        return candidate

    def _diagnose_deadlock(self) -> None:
        stuck = [
            f"{st.launch.instance_id}({st.kernel.name}: "
            f"dispatched {st.next_tb}/{st.kernel.grid_blocks}, "
            f"resident {st.resident_count}, arrival {st.arrival})"
            for st in self._states.values()
            if not st.complete
        ]
        raise SimulationError(
            "scheduler deadlock: no resident work, no future arrivals, but "
            "incomplete launches remain: " + "; ".join(sorted(stuck))
        )

    def _advance(self, t_next: float) -> None:
        dt = t_next - self._now
        throughput = self._gpu.sm.issue_throughput
        if dt > 0:
            mem_active = sum(
                1 for tb in self._resident.values() if tb.memory_active
            )
            if mem_active:
                self._mem_virtual += (
                    self._gpu.dram_bandwidth / mem_active
                ) * dt
            for sm_state in self._sms:
                compute_active = sum(
                    1 for tb in sm_state.resident.values() if tb.compute_active
                )
                if compute_active:
                    sm_state.virtual += (throughput / compute_active) * dt
        self._now = t_next

        for tb in self._resident.values():
            if tb.memory_active and tb.memory_finish - self._mem_virtual <= _EPS:
                tb.memory_active = False
            if (
                tb.compute_active
                and tb.compute_finish - self._sms[tb.sm].virtual <= _EPS
            ):
                tb.compute_active = False
        finished = [tb for tb in self._resident.values() if tb.done]
        for tb in finished:
            self._complete_tb(tb)

    def _complete_tb(self, tb: _RefTB) -> None:
        st = self._states[tb.launch.instance_id]
        self._sms[tb.sm].release(st.kernel)
        del self._sms[tb.sm].resident[tb.key]
        del self._resident[tb.key]
        self._resident_counts[tb.sm] = len(self._sms[tb.sm].resident)
        st.resident_count -= 1
        assert self._trace is not None
        self._trace.add_block(
            instance_id=tb.launch.instance_id,
            logical_id=tb.launch.logical_id or 0,
            copy_id=tb.launch.copy_id,
            tb_index=tb.tb_index,
            sm=tb.sm,
            start=tb.start,
            end=self._now,
            tag=tb.launch.tag,
        )
        if st.all_dispatched and st.resident_count == 0:
            self._complete_launch(st)

    def _complete_launch(self, st: _RefLaunchState) -> None:
        st.completion = self._now
        assert st.first_dispatch is not None and st.arrival is not None
        assert self._trace is not None
        self._trace.add_span(
            KernelSpan(
                instance_id=st.launch.instance_id,
                logical_id=st.launch.logical_id or 0,
                copy_id=st.launch.copy_id,
                arrival=st.arrival,
                first_dispatch=st.first_dispatch,
                completion=st.completion,
                tag=st.launch.tag,
            )
        )
        self._scheduler.on_kernel_complete(st.launch, self)
        for iid in self._order:
            dep_st = self._states[iid]
            if st.launch.instance_id in dep_st.remaining_deps:
                dep_st.remaining_deps.discard(st.launch.instance_id)
                if not dep_st.remaining_deps and dep_st.arrival is None:
                    self._assign_arrival(dep_st, ready_at=self._now)

    def _check_all_complete(self) -> None:
        leftovers = [
            iid for iid, st in self._states.items() if not st.complete
        ]
        if leftovers:
            raise SimulationError(
                f"simulation ended with incomplete launches: {sorted(leftovers)}"
            )

