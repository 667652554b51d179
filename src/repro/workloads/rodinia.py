"""Rodinia-like benchmark descriptors.

The paper evaluates with the Rodinia heterogeneous-computing suite [12],
[13]: eleven benchmarks on GPGPU-Sim (Figure 4) and the full suite on a
GTX 1050 Ti (Figure 5).  The CUDA sources are not available offline, so
each benchmark is modelled as a
*kernel chain* (grid sizes, block sizes, resource footprints, abstract
compute/memory demand per block) plus a *COTS profile* (host-side CPU/IO
time, transfer volumes, launch counts, kernel milliseconds).

Shapes are synthesized from the public Rodinia characterisation
literature and the paper's own discussion:

* ``backprop`` / ``bfs`` — very short kernels whose grids need more than
  half of the SMs (the paper's exceptions where HALF hurts and SRRS is
  innocuous);
* ``gaussian`` / ``nn`` / ``nw`` — short or narrow kernels fitting in half
  the machine;
* ``hotspot`` / ``hotspot3D`` / ``dwt2d`` / ``leukocyte`` — friendly,
  machine-saturating kernels;
* ``lud`` — a triangular multi-launch mixture (the paper's 10 % HALF
  worst case);
* ``myocyte`` — almost no thread-level parallelism, so serialization
  doubles its time (the paper's 99 % SRRS worst case);
* ``cfd`` / ``streamcluster`` — kernel-dominated end-to-end times (the
  only two benchmarks whose redundant-serialized COTS execution is
  noticeably slower in Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelDescriptor

__all__ = [
    "COTSProfile",
    "RodiniaBenchmark",
    "FIG4_BENCHMARKS",
    "FIG5_BENCHMARKS",
    "get_benchmark",
]


@dataclass(frozen=True)
class COTSProfile:
    """End-to-end (Figure 5) profile of one benchmark on the COTS box.

    All times in milliseconds, volumes in megabytes; values are
    per-*benchmark-run* totals.

    Attributes:
        cpu_ms: host-side work outside the GPU protocol (file I/O, setup,
            CPU phases) — paid once, never replicated.
        kernel_ms: GPU kernel execution time of the whole chain.
        input_mb / output_mb: H2D / D2H transfer volumes.
        n_launches: CUDA kernel-launch commands issued.
        alloc_buffers: device allocations performed.
    """

    cpu_ms: float
    kernel_ms: float
    input_mb: float
    output_mb: float
    n_launches: int
    alloc_buffers: int = 4

    def __post_init__(self) -> None:
        if min(self.cpu_ms, self.kernel_ms, self.input_mb, self.output_mb) < 0:
            raise ConfigurationError("COTS profile values cannot be negative")
        if self.n_launches <= 0 or self.alloc_buffers <= 0:
            raise ConfigurationError("launch/alloc counts must be positive")


@dataclass(frozen=True)
class RodiniaBenchmark:
    """One benchmark: its kernel chain and COTS profile.

    Attributes:
        name: Rodinia benchmark name.
        kernels: launch chain simulated for Figure 4 (empty for
            benchmarks only present in the COTS Figure 5 evaluation).
        cots: end-to-end profile for Figure 5.
        category: expected Figure 3 category (``"short"``, ``"heavy"``,
            ``"friendly"``) of the dominant kernel — used as a
            cross-check by the classifier tests.
    """

    name: str
    kernels: Tuple[KernelDescriptor, ...]
    cots: COTSProfile
    category: str = "friendly"

    def __post_init__(self) -> None:
        if self.category not in ("short", "heavy", "friendly"):
            raise ConfigurationError(f"unknown category {self.category!r}")


def _k(name: str, grid: int, tpb: int, work: float, mem: float = 0.0,
       regs: int = 24, smem: int = 0) -> KernelDescriptor:
    """Shorthand kernel constructor used by the suite tables."""
    return KernelDescriptor(
        name=name,
        grid_blocks=grid,
        threads_per_block=tpb,
        regs_per_thread=regs,
        shared_mem_per_block=smem,
        work_per_block=work,
        bytes_per_block=mem,
    )


def _backprop() -> RodiniaBenchmark:
    # two wide, very short kernels: grids need > half the SMs, but each
    # kernel finishes before the redundant copy is even dispatched.
    kernels = (
        _k("backprop/layerforward", grid=32, tpb=256, work=400.0, mem=600.0, smem=8192),
        _k("backprop/adjust_weights", grid=32, tpb=256, work=350.0, mem=800.0),
    )
    return RodiniaBenchmark(
        name="backprop",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=720.0, kernel_ms=14.0, input_mb=72.0,
                         output_mb=36.0, n_launches=2),
        category="short",
    )


def _bfs() -> RodiniaBenchmark:
    # iterative frontier expansion: 8 iterations of two tiny kernels,
    # each wider than half the machine.
    iteration = (
        _k("bfs/kernel1", grid=16, tpb=512, work=250.0, mem=900.0),
        _k("bfs/kernel2", grid=16, tpb=512, work=180.0, mem=500.0),
    )
    return RodiniaBenchmark(
        name="bfs",
        kernels=iteration * 8,
        cots=COTSProfile(cpu_ms=900.0, kernel_ms=16.0, input_mb=120.0,
                         output_mb=8.0, n_launches=16),
        category="short",
    )


def _dwt2d() -> RodiniaBenchmark:
    kernels = (
        _k("dwt2d/fdwt_vertical", grid=30, tpb=192, work=4200.0, mem=2500.0, smem=12288),
        _k("dwt2d/fdwt_horizontal", grid=30, tpb=192, work=3800.0, mem=2200.0, smem=12288),
        _k("dwt2d/fdwt_vertical", grid=24, tpb=192, work=2600.0, mem=1500.0, smem=12288),
        _k("dwt2d/fdwt_horizontal", grid=24, tpb=192, work=2400.0, mem=1400.0, smem=12288),
    )
    return RodiniaBenchmark(
        name="dwt2d",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=480.0, kernel_ms=22.0, input_mb=48.0,
                         output_mb=48.0, n_launches=4),
        category="friendly",
    )


def _gaussian() -> RodiniaBenchmark:
    # elimination loop: many tiny, narrow launches (Fan1 grid 2, Fan2
    # grid 3) that fit comfortably in half the machine.
    iteration = (
        _k("gaussian/fan1", grid=2, tpb=512, work=160.0, mem=250.0),
        _k("gaussian/fan2", grid=3, tpb=512, work=300.0, mem=700.0),
    )
    return RodiniaBenchmark(
        name="gaussian",
        kernels=iteration * 12,
        cots=COTSProfile(cpu_ms=380.0, kernel_ms=18.0, input_mb=16.0,
                         output_mb=16.0, n_launches=24),
        category="short",
    )


def _hotspot() -> RodiniaBenchmark:
    kernels = tuple(
        _k("hotspot/calculate_temp", grid=36, tpb=256, work=4000.0,
           mem=3000.0, smem=12288)
        for _ in range(3)
    )
    return RodiniaBenchmark(
        name="hotspot",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=340.0, kernel_ms=26.0, input_mb=32.0,
                         output_mb=16.0, n_launches=3),
        category="friendly",
    )


def _hotspot3d() -> RodiniaBenchmark:
    kernels = tuple(
        _k("hotspot3D/hotspotOpt1", grid=48, tpb=256, work=3200.0, mem=4200.0)
        for _ in range(4)
    )
    return RodiniaBenchmark(
        name="hotspot3D",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=520.0, kernel_ms=34.0, input_mb=96.0,
                         output_mb=32.0, n_launches=4),
        category="friendly",
    )


def _leukocyte() -> RodiniaBenchmark:
    kernels = (
        _k("leukocyte/GICOV", grid=36, tpb=176, work=22000.0, mem=5200.0),
        _k("leukocyte/dilate", grid=36, tpb=176, work=9000.0, mem=4200.0),
        _k("leukocyte/IMGVF", grid=30, tpb=128, work=26000.0, mem=6000.0, smem=16384),
    )
    return RodiniaBenchmark(
        name="leukocyte",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=7800.0, kernel_ms=280.0, input_mb=220.0,
                         output_mb=24.0, n_launches=600),
        category="friendly",
    )


def _lud() -> RodiniaBenchmark:
    # triangular factorisation: per step a 1-block diagonal, a small
    # perimeter and a shrinking internal grid; internal grids of 4-6
    # blocks are where HALF pays its (mild) price.
    chain: List[KernelDescriptor] = []
    for k in (6, 5, 4, 3, 2):
        chain.append(_k("lud/diagonal", grid=1, tpb=256, work=1200.0, smem=8192))
        chain.append(
            _k("lud/perimeter", grid=k - 1, tpb=256, work=2200.0,
               mem=900.0, smem=16384)
        )
        chain.append(
            _k("lud/internal", grid=(k - 1) * (k - 1), tpb=256, work=3400.0,
               mem=1500.0, smem=8192)
        )
    chain.append(_k("lud/diagonal", grid=1, tpb=256, work=1200.0, smem=8192))
    return RodiniaBenchmark(
        name="lud",
        kernels=tuple(chain),
        cots=COTSProfile(cpu_ms=420.0, kernel_ms=30.0, input_mb=32.0,
                         output_mb=32.0, n_launches=16),
        category="friendly",
    )


def _myocyte() -> RodiniaBenchmark:
    # notoriously serial: a single 2-block grid, long-running kernel —
    # the paper's 99 % SRRS outlier.
    kernels = (
        _k("myocyte/solver", grid=2, tpb=128, work=250000.0, mem=9000.0),
    )
    return RodiniaBenchmark(
        name="myocyte",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=900.0, kernel_ms=360.0, input_mb=2.0,
                         output_mb=2.0, n_launches=1),
        category="friendly",
    )


def _nn() -> RodiniaBenchmark:
    kernels = (_k("nn/euclid", grid=3, tpb=256, work=500.0, mem=1200.0),)
    return RodiniaBenchmark(
        name="nn",
        kernels=kernels,
        cots=COTSProfile(cpu_ms=260.0, kernel_ms=2.0, input_mb=20.0,
                         output_mb=1.0, n_launches=1),
        category="short",
    )


def _nw() -> RodiniaBenchmark:
    # wavefront over the anti-diagonals: grids grow then shrink; the
    # narrow head/tail diagonals underuse the machine, which is where
    # SRRS's serialization costs and HALF stays nearly free.
    chain: List[KernelDescriptor] = []
    for grid in (2, 4, 6, 6, 4, 2):
        chain.append(
            _k("nw/needle", grid=grid, tpb=32, work=6000.0, mem=1100.0,
               smem=8448)
        )
    return RodiniaBenchmark(
        name="nw",
        kernels=tuple(chain),
        cots=COTSProfile(cpu_ms=310.0, kernel_ms=18.0, input_mb=64.0,
                         output_mb=64.0, n_launches=6),
        category="friendly",
    )


# ----------------------------------------------------------------------
# COTS-only profiles (Figure 5 benchmarks without a simulated chain)
# ----------------------------------------------------------------------
def _cots_only(name: str, cpu_ms: float, kernel_ms: float, input_mb: float,
               output_mb: float, n_launches: int,
               category: str = "friendly") -> RodiniaBenchmark:
    return RodiniaBenchmark(
        name=name,
        kernels=(),
        cots=COTSProfile(cpu_ms=cpu_ms, kernel_ms=kernel_ms,
                         input_mb=input_mb, output_mb=output_mb,
                         n_launches=n_launches),
        category=category,
    )


def _suite() -> Dict[str, RodiniaBenchmark]:
    benchmarks = [
        _backprop(),
        _bfs(),
        _dwt2d(),
        _gaussian(),
        _hotspot(),
        _hotspot3d(),
        _leukocyte(),
        _lud(),
        _myocyte(),
        _nn(),
        _nw(),
        # Figure-5-only benchmarks: cfd and streamcluster are the paper's
        # two kernel-dominated outliers; the rest are host-dominated.
        _cots_only("b+tree", cpu_ms=1450.0, kernel_ms=24.0, input_mb=160.0,
                   output_mb=12.0, n_launches=2),
        _cots_only("cfd", cpu_ms=320.0, kernel_ms=3400.0, input_mb=92.0,
                   output_mb=92.0, n_launches=12000),
        _cots_only("heartwall", cpu_ms=1650.0, kernel_ms=180.0,
                   input_mb=280.0, output_mb=8.0, n_launches=104),
        _cots_only("hybridsort", cpu_ms=830.0, kernel_ms=95.0,
                   input_mb=128.0, output_mb=128.0, n_launches=14),
        _cots_only("kmeans", cpu_ms=1240.0, kernel_ms=130.0, input_mb=200.0,
                   output_mb=24.0, n_launches=40),
        _cots_only("lavaMD", cpu_ms=610.0, kernel_ms=210.0, input_mb=48.0,
                   output_mb=48.0, n_launches=1),
        _cots_only("particlefilter", cpu_ms=740.0, kernel_ms=110.0,
                   input_mb=64.0, output_mb=16.0, n_launches=36),
        _cots_only("pathfinder", cpu_ms=450.0, kernel_ms=28.0,
                   input_mb=96.0, output_mb=2.0, n_launches=5),
        _cots_only("srad", cpu_ms=980.0, kernel_ms=150.0, input_mb=96.0,
                   output_mb=96.0, n_launches=8),
        _cots_only("streamcluster", cpu_ms=620.0, kernel_ms=4100.0,
                   input_mb=40.0, output_mb=40.0, n_launches=9000),
    ]
    return {b.name: b for b in benchmarks}


_SUITE: Dict[str, RodiniaBenchmark] = _suite()

#: The eleven benchmarks simulated in the paper's Figure 4, plot order.
FIG4_BENCHMARKS: Tuple[str, ...] = (
    "backprop", "bfs", "dwt2d", "gaussian", "hotspot", "hotspot3D",
    "leukocyte", "lud", "myocyte", "nn", "nw",
)

#: The benchmarks of the paper's Figure 5 (full suite on the COTS GPU).
FIG5_BENCHMARKS: Tuple[str, ...] = tuple(sorted(_SUITE))


def get_benchmark(name: str) -> RodiniaBenchmark:
    """Look up a benchmark by name.

    Raises:
        ConfigurationError: for unknown names.
    """
    try:
        return _SUITE[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {', '.join(sorted(_SUITE))}"
        ) from None
