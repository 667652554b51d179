"""Shared experiment runners behind the benchmark harness.

Each function regenerates one paper artifact (or extension experiment)
and returns structured rows, so benches, tests and EXPERIMENTS.md all
consume the same code path.  See DESIGN.md's per-experiment index.

.. deprecated::
    These runners are thin compatibility shims: each one now builds its
    specs through the scenario registry (:mod:`repro.api.scenarios`) and
    executes them on the :class:`repro.api.Engine`, then reshapes the
    uniform :class:`~repro.api.artifact.RunArtifact` list into the legacy
    row dataclasses.  New code should call the engine directly::

        artifacts = repro.run_many(repro.build_scenario("fig4"), workers=4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.artifact import RunArtifact
from repro.api.engine import Engine
from repro.api.scenarios import FIG3_SYNTHETICS, build_scenario
from repro.faults.report import CampaignConfig
from repro.gpu.config import GPUConfig
from repro.gpu.cots import COTSDevice
from repro.gpu.scheduler.registry import PAPER_POLICIES
from repro.workloads.rodinia import FIG4_BENCHMARKS, FIG5_BENCHMARKS

__all__ = [
    "Fig4Row",
    "fig4_scheduler_comparison",
    "Fig5Row",
    "fig5_cots_comparison",
    "Fig3Row",
    "fig3_kernel_categories",
    "CoverageRow",
    "fault_coverage_by_policy",
    "PolicyFitRow",
    "policy_fit_matrix",
    "dispatch_latency_sweep",
    "sm_count_sweep",
]

_ENGINE = Engine()


def _by_tag_and_policy(artifacts: Sequence[RunArtifact]
                       ) -> Dict[Tuple[str, str], RunArtifact]:
    return {(a.spec.tag, a.spec.policy): a for a in artifacts}


# ----------------------------------------------------------------------
# E3 — Figure 4
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Row:
    """One benchmark of the Figure 4 comparison.

    Attributes:
        benchmark: Rodinia benchmark name.
        default_cycles: GPU busy cycles of redundant execution under the
            stock scheduler (the normalisation base).
        half_ratio / srrs_ratio: normalized busy cycles under HALF / SRRS.
        half_diverse / srrs_diverse: whether the run satisfied the
            diverse-redundancy criterion (must be True — that is the
            point of the policies).
        default_diverse: diversity under the stock scheduler (typically
            False — the motivation).
    """

    benchmark: str
    default_cycles: float
    half_ratio: float
    srrs_ratio: float
    default_diverse: bool
    half_diverse: bool
    srrs_diverse: bool


def fig4_scheduler_comparison(gpu: Optional[GPUConfig] = None,
                              benchmarks: Sequence[str] = FIG4_BENCHMARKS
                              ) -> List[Fig4Row]:
    """Regenerate Figure 4: normalized redundant-execution cycles.

    Simulates each benchmark's redundant kernel chain under the default,
    HALF and SRRS policies on the 6-SM GPGPU-Sim-like GPU and normalizes
    GPU busy cycles to the default scheduler.
    """
    artifacts = _by_tag_and_policy(
        _ENGINE.run_many(build_scenario("fig4", benchmarks=benchmarks, gpu=gpu))
    )
    rows: List[Fig4Row] = []
    for name in benchmarks:
        cycles: Dict[str, float] = {}
        diverse: Dict[str, bool] = {}
        for policy in PAPER_POLICIES:
            artifact = artifacts[(name, policy)]
            cycles[policy] = artifact.timing.busy_cycles
            diverse[policy] = artifact.diversity.fully_diverse
        base = cycles["default"]
        rows.append(
            Fig4Row(
                benchmark=name,
                default_cycles=base,
                half_ratio=cycles["half"] / base,
                srrs_ratio=cycles["srrs"] / base,
                default_diverse=diverse["default"],
                half_diverse=diverse["half"],
                srrs_diverse=diverse["srrs"],
            )
        )
    return rows


# ----------------------------------------------------------------------
# E4 — Figure 5
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Row:
    """One benchmark of the Figure 5 COTS comparison (milliseconds)."""

    benchmark: str
    baseline_ms: float
    redundant_ms: float

    @property
    def ratio(self) -> float:
        """Redundant-serialized over baseline end-to-end time."""
        return self.redundant_ms / self.baseline_ms


def fig5_cots_comparison(device: Optional[COTSDevice] = None,
                         benchmarks: Sequence[str] = FIG5_BENCHMARKS
                         ) -> List[Fig5Row]:
    """Regenerate Figure 5: COTS baseline vs redundant-serialized times."""
    artifacts = _ENGINE.run_many(
        build_scenario("fig5", benchmarks=benchmarks, device=device)
    )
    return [
        Fig5Row(
            benchmark=a.cots.benchmark,
            baseline_ms=a.cots.baseline_ms,
            redundant_ms=a.cots.redundant_ms,
        )
        for a in artifacts
    ]


# ----------------------------------------------------------------------
# E2 — Figure 3
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Row:
    """Classification evidence for one kernel (Figure 3 taxonomy)."""

    kernel: str
    category: str
    isolated_cycles: float
    overlap_fraction: float
    resident_fraction: float
    recommended_policy: str


def fig3_kernel_categories(gpu: Optional[GPUConfig] = None) -> List[Fig3Row]:
    """Regenerate Figure 3 with synthetic archetype kernels.

    Builds one representative kernel per category (plus a narrow
    myocyte-like one) and reports the measured overlap evidence.
    """
    artifacts = _ENGINE.run_many(build_scenario("fig3", gpu=gpu))
    rows: List[Fig3Row] = []
    for artifact in artifacts:
        row = artifact.classification[0]
        rows.append(
            Fig3Row(
                kernel=row.kernel,
                category=row.category,
                isolated_cycles=row.isolated_cycles,
                overlap_fraction=row.overlap_fraction,
                resident_fraction=row.resident_fraction,
                recommended_policy=row.recommended_policy,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E5 — fault coverage by policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoverageRow:
    """Fault-injection outcome of one policy (extension experiment E5)."""

    policy: str
    total: int
    masked: int
    detected: int
    sdc: int
    coverage: float


def fault_coverage_by_policy(gpu: Optional[GPUConfig] = None,
                             benchmark: str = "hotspot",
                             config: Optional[CampaignConfig] = None
                             ) -> List[CoverageRow]:
    """Run the E5 campaign for all three policies on one benchmark."""
    artifacts = _ENGINE.run_many(
        build_scenario("coverage", benchmark=benchmark, gpu=gpu, config=config)
    )
    return [
        CoverageRow(
            policy=a.faults.policy,
            total=a.faults.total,
            masked=a.faults.masked,
            detected=a.faults.detected,
            sdc=a.faults.sdc,
            coverage=a.faults.detection_coverage,
        )
        for a in artifacts
    ]


# ----------------------------------------------------------------------
# E6 — policy-fit matrix (Section IV-D)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyFitRow:
    """Overhead of each policy for one kernel category."""

    kernel: str
    category: str
    half_ratio: float
    srrs_ratio: float
    best_policy: str


def policy_fit_matrix(gpu: Optional[GPUConfig] = None) -> List[PolicyFitRow]:
    """Measure each policy's overhead per kernel category (Section IV-D).

    Expected: SRRS wins for short and heavy kernels, HALF for friendly
    ones — with the narrow-long kernel as the extreme SRRS loss case.
    """
    artifacts = _by_tag_and_policy(
        _ENGINE.run_many(build_scenario("policyfit", gpu=gpu))
    )
    rows: List[PolicyFitRow] = []
    for name in FIG3_SYNTHETICS:
        tag = f"synthetic/{name}"
        cycles = {
            policy: artifacts[(tag, policy)].timing.busy_cycles
            for policy in PAPER_POLICIES
        }
        classification = artifacts[(tag, PAPER_POLICIES[0])].classification[0]
        base = cycles["default"]
        half_ratio = cycles["half"] / base
        srrs_ratio = cycles["srrs"] / base
        rows.append(
            PolicyFitRow(
                kernel=classification.kernel,
                category=classification.category,
                half_ratio=half_ratio,
                srrs_ratio=srrs_ratio,
                best_policy="half" if half_ratio < srrs_ratio else "srrs",
            )
        )
    return rows


# ----------------------------------------------------------------------
# E9 — ablation sweeps
# ----------------------------------------------------------------------
def dispatch_latency_sweep(latencies: Sequence[float],
                           benchmark: str = "hotspot",
                           gpu: Optional[GPUConfig] = None
                           ) -> List[Tuple[float, float, float]]:
    """Sweep the host dispatch latency (the natural-staggering knob).

    Returns:
        ``(latency, half_ratio, srrs_ratio)`` tuples — how each policy's
        overhead depends on the serial-dispatch gap.
    """
    artifacts = _by_tag_and_policy(
        _ENGINE.run_many(
            build_scenario("sweep-dispatch", latencies=latencies,
                           benchmark=benchmark, gpu=gpu)
        )
    )
    rows: List[Tuple[float, float, float]] = []
    for latency in latencies:
        tag = f"{benchmark}@{latency:g}"
        cycles = {
            policy: artifacts[(tag, policy)].timing.busy_cycles
            for policy in PAPER_POLICIES
        }
        rows.append(
            (
                latency,
                cycles["half"] / cycles["default"],
                cycles["srrs"] / cycles["default"],
            )
        )
    return rows


def sm_count_sweep(sm_counts: Sequence[int], benchmark: str = "hotspot",
                   gpu: Optional[GPUConfig] = None
                   ) -> List[Tuple[int, float, float]]:
    """Sweep the SM count (scaling toward bigger automotive GPUs).

    Returns:
        ``(num_sms, half_ratio, srrs_ratio)`` tuples.
    """
    artifacts = _by_tag_and_policy(
        _ENGINE.run_many(
            build_scenario("sweep-sms", sm_counts=sm_counts,
                           benchmark=benchmark, gpu=gpu)
        )
    )
    rows: List[Tuple[int, float, float]] = []
    for count in sm_counts:
        tag = f"{benchmark}@{count}sm"
        cycles = {
            policy: artifacts[(tag, policy)].timing.busy_cycles
            for policy in PAPER_POLICIES
        }
        rows.append(
            (
                count,
                cycles["half"] / cycles["default"],
                cycles["srrs"] / cycles["default"],
            )
        )
    return rows
