"""Redundant kernel execution manager — the paper's Section IV-A protocol.

The manager drives the five steps the DCLS host performs per safety-
critical offload:

1. allocate GPU memory for both redundant kernels and
2. transfer input data (both costed by
   :func:`repro.gpu.cots.protocol_overhead_ms`);
3. launch the redundant kernels — built here as an interleaved launch
   sequence (``k0 copy0, k0 copy1, k1 copy0, k1 copy1, ...``) whose
   serial dispatch through the host command path provides the natural
   staggering;
4. collect results from both kernels;
5. compare outcomes on the DCLS cores
   (:func:`repro.redundancy.comparison.compare_signatures`).

The GPU-side timing and placement come from :mod:`repro.gpu.simulator`
under the selected scheduling policy; the returned
:class:`RedundantRunResult` bundles timing, per-kernel comparisons and the
measured diversity report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RedundancyError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.scheduler.registry import make_scheduler
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.redundancy.comparison import (
    ComparisonResult,
    OutputSignature,
    build_signature,
    compare_signatures,
)
from repro.redundancy.diversity import DiversityReport, analyze_diversity

__all__ = ["RedundantRunResult", "RedundantKernelManager", "build_redundant_workload"]

# Per-process memo of non-redundant baseline makespans, keyed by the full
# simulation input ``(GPUConfig, kernel chain)``.  The simulation is
# deterministic, so a hit returns exactly the float a fresh run would; a
# policy sweep re-asks for the same baseline once per policy.  Bounded:
# the oldest entry is evicted first.  Values are floats, keys share the
# caller's frozen descriptors.
_BASELINE_MEMO: Dict[Tuple[GPUConfig, Tuple[KernelDescriptor, ...]], float] = {}
_BASELINE_MEMO_LIMIT = 256


def build_redundant_workload(kernels: Sequence[KernelDescriptor], *,
                             copies: int = 2, tag: str = "",
                             ) -> List[KernelLaunch]:
    """Build the interleaved redundant launch sequence for a kernel chain.

    Kernel *i* of copy *c* receives instance id ``i * copies + c`` and
    logical id ``i``; it depends on kernel *i-1* of the same copy (stream
    ordering).  Submission order interleaves copies per kernel, mirroring
    a host that enqueues the redundant launch right after the primary.

    Args:
        kernels: the application's kernel chain (one entry per launch).
        copies: redundancy degree (2 = DMR, 3 = TMR, ...).
        tag: label copied into every launch/trace record.

    Raises:
        RedundancyError: for fewer than two copies or an empty chain.
    """
    if copies < 2:
        raise RedundancyError("redundant execution requires >= 2 copies")
    if not kernels:
        raise RedundancyError("kernel chain must not be empty")
    launches: List[KernelLaunch] = []
    for i, kd in enumerate(kernels):
        for c in range(copies):
            deps: Tuple[int, ...]
            if i == 0:
                deps = ()
            else:
                deps = ((i - 1) * copies + c,)
            launches.append(
                KernelLaunch(
                    kernel=kd,
                    instance_id=i * copies + c,
                    copy_id=c,
                    depends_on=deps,
                    logical_id=i,
                    tag=tag,
                )
            )
    return launches


@dataclass(frozen=True)
class RedundantRunResult:
    """Outcome of one redundant execution of a kernel chain.

    Attributes:
        sim: the underlying simulation result (trace, makespan).
        signatures: per-launch output signatures keyed by
            ``(logical_id, copy_id)``.
        comparisons: one DCLS comparison per logical kernel.
        diversity: diversity report between copies 0 and 1.
        copies: redundancy degree used.
    """

    sim: SimulationResult
    signatures: Mapping[Tuple[int, int], OutputSignature]
    comparisons: Tuple[ComparisonResult, ...]
    diversity: DiversityReport
    copies: int

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Cycles from first launch arrival to last block completion."""
        return self.sim.makespan

    @property
    def error_detected(self) -> bool:
        """True when any DCLS comparison flagged a mismatch."""
        return any(c.error_detected for c in self.comparisons)

    @property
    def silent_corruption(self) -> bool:
        """True when identical corruption escaped every comparison."""
        return any(c.silent_corruption for c in self.comparisons)

    @property
    def all_clean(self) -> bool:
        """True when all outputs agree and carry no corruption."""
        return not self.error_detected and not self.silent_corruption

    def comparison_for(self, logical_id: int) -> ComparisonResult:
        """The comparison of one logical kernel.

        Raises:
            RedundancyError: for unknown logical ids.
        """
        for c in self.comparisons:
            if c.logical_id == logical_id:
                return c
        raise RedundancyError(f"no comparison for logical kernel {logical_id}")


class RedundantKernelManager:
    """Executes kernel chains redundantly under a scheduling policy.

    Args:
        gpu: GPU configuration.
        policy: scheduler instance or registry name (``"default"``,
            ``"srrs"``, ``"half"``).
        copies: redundancy degree (2 = DMR as in the paper's evaluation,
            3 = TMR as in its footnote 1).
        validate: forward to the simulator's trace validation.
    """

    def __init__(self, gpu: GPUConfig,
                 policy: Union[str, KernelScheduler] = "srrs",
                 *, copies: int = 2, validate: bool = True) -> None:
        if copies < 2:
            raise RedundancyError("redundancy degree must be >= 2")
        self._gpu = gpu
        self._scheduler = (
            make_scheduler(policy) if isinstance(policy, str) else policy
        )
        self._copies = copies
        self._simulator = GPUSimulator(gpu, self._scheduler, validate=validate)

    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GPUConfig:
        """The GPU configuration in use."""
        return self._gpu

    @property
    def scheduler(self) -> KernelScheduler:
        """The scheduling policy in use."""
        return self._scheduler

    @property
    def copies(self) -> int:
        """Redundancy degree."""
        return self._copies

    # ------------------------------------------------------------------
    def run(self, kernels: Sequence[KernelDescriptor], *, tag: str = "",
            corruption: Optional[Mapping[Tuple[int, int], Tuple]] = None
            ) -> RedundantRunResult:
        """Execute a kernel chain redundantly and compare the outputs.

        Args:
            kernels: the application's kernel chain.
            tag: label for traces/reports.
            corruption: optional fault-effect map ``(instance_id,
                tb_index) -> fault signature`` (produced by
                :mod:`repro.faults`); corrupted blocks yield error tokens.

        Returns:
            A :class:`RedundantRunResult`.
        """
        launches = build_redundant_workload(
            kernels, copies=self._copies, tag=tag
        )
        sim = self._simulator.run(launches)

        signatures: Dict[Tuple[int, int], OutputSignature] = {}
        for launch in launches:
            sig = build_signature(sim.trace, launch.instance_id, corruption)
            signatures[(sig.logical_id, sig.copy_id)] = sig

        comparisons = []
        for logical_id in sorted({l.logical_id for l in launches}):
            group = [
                signatures[(logical_id, c)] for c in range(self._copies)
            ]
            comparisons.append(compare_signatures(group))

        work_hint = max(k.work_per_block for k in kernels)
        diversity = analyze_diversity(
            sim.trace, copy_a=0, copy_b=1, work_per_block=work_hint
        )
        return RedundantRunResult(
            sim=sim,
            signatures=signatures,
            comparisons=tuple(comparisons),
            diversity=diversity,
            copies=self._copies,
        )

    def baseline_makespan(self, kernels: Sequence[KernelDescriptor], *,
                          tag: str = "") -> float:
        """Makespan of the *non-redundant* chain under this policy's GPU.

        Used to express redundancy overheads; always simulated with the
        default scheduler (a non-redundant app is unconstrained).  The
        makespan depends only on the GPU and the chain (``tag`` labels
        trace records), so repeated requests are served from a bounded
        per-process memo.
        """
        key = (self._gpu, tuple(kernels))
        cached = _BASELINE_MEMO.get(key)
        if cached is not None:
            return cached
        from repro.gpu.scheduler.default import DefaultScheduler

        launches: List[KernelLaunch] = []
        for i, kd in enumerate(kernels):
            launches.append(
                KernelLaunch(
                    kernel=kd,
                    instance_id=i,
                    copy_id=0,
                    depends_on=(i - 1,) if i else (),
                    logical_id=i,
                    tag=tag,
                )
            )
        sim = GPUSimulator(self._gpu, DefaultScheduler()).run(launches)
        if len(_BASELINE_MEMO) >= _BASELINE_MEMO_LIMIT:
            del _BASELINE_MEMO[next(iter(_BASELINE_MEMO))]
        _BASELINE_MEMO[key] = sim.makespan
        return sim.makespan
