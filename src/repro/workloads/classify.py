"""Kernel taxonomy — the paper's Figure 3 categories.

Section IV-B classifies kernels by how a redundant pair can share the GPU:

* **short** — "execute too fast to overlap practically": the first copy
  finishes before the second is even dispatched;
* **heavy** — "coexist in the GPU, but a single kernel uses too many
  resources to allow the other to start": no or marginal overlap;
* **friendly** — "coexist in the GPU and use limited resources so that
  both kernels can make progress concurrently".

Classification is *empirical*, as in the paper's analysis phase: launch a
redundant pair under the unconstrained default policy and measure (a) the
isolated execution time against the dispatch latency and (b) the achieved
co-residency overlap.  The result feeds the policy recommendation of
Section IV-D (SRRS for short/heavy, HALF for friendly).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.scheduler.default import DefaultScheduler
from repro.gpu.simulator import GPUSimulator

__all__ = ["KernelCategory", "ClassificationReport", "classify_kernel",
           "recommend_policy"]

#: Overlap fraction below which co-existing kernels count as non-overlapping.
OVERLAP_THRESHOLD = 0.05


class KernelCategory(enum.Enum):
    """The paper's Figure 3 kernel categories."""

    SHORT = "short"
    HEAVY = "heavy"
    FRIENDLY = "friendly"


@dataclass(frozen=True)
class ClassificationReport:
    """Evidence backing one kernel's classification.

    Attributes:
        category: resulting category.
        isolated_cycles: execution time of one copy alone on the GPU.
        dispatch_latency: the GPU's serial-dispatch gap.
        overlap_fraction: co-residency overlap of a redundant pair under
            the default policy, as a fraction of the shorter copy's
            execution time.
        resident_fraction: fraction of the GPU's block-residency capacity
            a single copy can occupy (resource pressure).
    """

    category: KernelCategory
    isolated_cycles: float
    dispatch_latency: float
    overlap_fraction: float
    resident_fraction: float


def classify_kernel(kernel: KernelDescriptor, gpu: GPUConfig
                    ) -> ClassificationReport:
    """Classify one kernel per the paper's Figure 3 taxonomy.

    Runs two tiny simulations under the default policy: the kernel alone
    (isolated time) and a redundant pair (achievable overlap).

    Returns:
        A :class:`ClassificationReport` with the category and evidence.
    """
    solo = GPUSimulator(gpu, DefaultScheduler()).run(
        [KernelLaunch(kernel=kernel, instance_id=0, copy_id=0, logical_id=0)]
    )
    isolated = solo.trace.span(0).exec_time

    pair = GPUSimulator(gpu, DefaultScheduler()).run(
        [
            KernelLaunch(kernel=kernel, instance_id=0, copy_id=0, logical_id=0),
            KernelLaunch(kernel=kernel, instance_id=1, copy_id=1, logical_id=0),
        ]
    )
    overlap = pair.trace.overlap_cycles(0, 1)
    shorter = min(
        pair.trace.span(0).exec_time, pair.trace.span(1).exec_time
    )
    overlap_fraction = overlap / shorter if shorter > 0 else 0.0

    capacity = blocks_per_sm(kernel, gpu.sm) * gpu.num_sms
    resident_fraction = min(1.0, kernel.grid_blocks / capacity)

    if overlap_fraction < OVERLAP_THRESHOLD:
        if isolated <= gpu.dispatch_latency:
            category = KernelCategory.SHORT
        else:
            category = KernelCategory.HEAVY
    else:
        category = KernelCategory.FRIENDLY

    return ClassificationReport(
        category=category,
        isolated_cycles=isolated,
        dispatch_latency=gpu.dispatch_latency,
        overlap_fraction=overlap_fraction,
        resident_fraction=resident_fraction,
    )


def recommend_policy(category: KernelCategory) -> str:
    """The paper's Section IV-D policy recommendation per category.

    SRRS costs nothing for kernels that never overlap anyway (short) or
    barely overlap (heavy); HALF preserves the concurrency that friendly
    kernels would otherwise lose to serialization.
    """
    if category in (KernelCategory.SHORT, KernelCategory.HEAVY):
        return "srrs"
    return "half"
