"""Analytic COTS end-to-end model (the paper's Figure 5 testbed).

Section V-B of the paper mimics SRRS on a GTX 1050 Ti by serializing the
redundant kernels with ``cudaDeviceSynchronize()`` and measures *end-to-
end* benchmark times.  The observation is that redundant-serialized
execution costs almost nothing for most benchmarks, because the GPU
protocol (transfers + kernels) is a small share of the end-to-end time;
the exceptions — cfd and streamcluster — are kernel-dominated.

We reproduce that with a transparent decomposition.  Baseline:

    t = cpu + alloc + h2d + launch_overhead + kernel + d2h

Redundant serialized (the paper's steps 1-5): allocations, transfers,
launches and kernels are paid twice — the kernel part strictly serialized
— and the DCLS cores compare both output buffers:

    t = cpu + 2*(alloc + h2d + launch_overhead + kernel + d2h) + compare

Device parameters (transfer bandwidths, launch overhead, compare rate)
are grouped in :class:`COTSDevice` with GTX-1050-Ti-flavoured defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.workloads.rodinia import COTSProfile, RodiniaBenchmark

__all__ = [
    "COTSDevice",
    "COTS_DEVICE_PRESETS",
    "cots_device_preset",
    "protocol_overhead_ms",
    "EndToEndBreakdown",
    "cots_end_to_end",
]


@dataclass(frozen=True)
class COTSDevice:
    """Host/device parameters of the COTS platform.

    Defaults are in the ballpark of the paper's testbed (AMD Ryzen 7
    1800X + GTX 1050 Ti on PCIe 3.0 x16, pageable transfers).

    Attributes:
        h2d_gbps / d2h_gbps: effective transfer bandwidths (GB/s).
        launch_overhead_ms: host-side cost per kernel-launch command.
        alloc_ms: cost per ``cudaMalloc``.
        free_ms: cost per ``cudaFree`` (0.0 by default for backward
            compatibility with profiles that fold it into ``cpu_ms``).
        compare_gbps: DCLS output-comparison throughput (GB/s); the
            comparison runs on the lockstep CPU cores.
        sync_overhead_ms: cost of the ``cudaDeviceSynchronize()`` barrier
            used to serialize the redundant kernels.
    """

    h2d_gbps: float = 6.0
    d2h_gbps: float = 6.0
    launch_overhead_ms: float = 0.008
    alloc_ms: float = 0.15
    free_ms: float = 0.0
    compare_gbps: float = 4.0
    sync_overhead_ms: float = 0.02

    def __post_init__(self) -> None:
        if min(self.h2d_gbps, self.d2h_gbps, self.compare_gbps) <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if min(self.launch_overhead_ms, self.alloc_ms, self.free_ms,
               self.sync_overhead_ms) < 0:
            raise ConfigurationError("overheads cannot be negative")

    # ------------------------------------------------------------------
    def transfer_ms(self, megabytes: float, gbps: float) -> float:
        """Milliseconds to move ``megabytes`` at ``gbps`` GB/s."""
        return megabytes / gbps / 1e3 * 1e3  # MB / (GB/s) = ms


#: Named host/device parameter sets for the vehicle-platform layer
#: (:mod:`repro.platform`): the paper's GTX-1050-Ti-flavoured defaults
#: plus a faster discrete card on a PCIe 4.0 link and a slower
#: embedded/integrated part — the heterogeneous fleet a real vehicle
#: platform mixes.
COTS_DEVICE_PRESETS: Dict[str, COTSDevice] = {
    "gtx1050ti": COTSDevice(),
    "pcie4-discrete": COTSDevice(
        h2d_gbps=12.0,
        d2h_gbps=12.0,
        launch_overhead_ms=0.004,
        alloc_ms=0.08,
        free_ms=0.0,
        compare_gbps=8.0,
        sync_overhead_ms=0.01,
    ),
    "embedded-igpu": COTSDevice(
        h2d_gbps=2.5,
        d2h_gbps=2.5,
        launch_overhead_ms=0.02,
        alloc_ms=0.4,
        free_ms=0.0,
        compare_gbps=1.5,
        sync_overhead_ms=0.05,
    ),
}


def cots_device_preset(name: str) -> COTSDevice:
    """Look up one :data:`COTS_DEVICE_PRESETS` entry.

    Raises:
        ConfigurationError: for unknown preset names.
    """
    try:
        return COTS_DEVICE_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown COTS device preset {name!r}; "
            f"known: {', '.join(sorted(COTS_DEVICE_PRESETS))}"
        ) from None


def protocol_overhead_ms(device: COTSDevice, *, input_mb: float,
                         output_mb: float, n_launches: int,
                         copies: int = 1) -> float:
    """Per-frame GPU-protocol overhead of one offload on ``device``.

    The host-side cost a frame pays on top of its simulated kernel time:
    transfers, launch commands and serialization barriers (each paid
    ``copies`` times) plus the DCLS output comparison between copies.
    This is the kernel-chain analogue of :func:`cots_end_to_end` (which
    works from a benchmark's measured :class:`COTSProfile`), used by
    :mod:`repro.platform` to make per-device service times reflect the
    device's interconnect and launch costs.
    """
    if copies < 1:
        raise ConfigurationError("protocol overhead needs copies >= 1")
    if min(input_mb, output_mb) < 0 or n_launches < 0:
        raise ConfigurationError(
            "transfer sizes and launch counts cannot be negative"
        )
    per_copy = (
        device.transfer_ms(input_mb, device.h2d_gbps)
        + device.transfer_ms(output_mb, device.d2h_gbps)
        + n_launches * (device.launch_overhead_ms + device.sync_overhead_ms)
    )
    compare = (
        device.transfer_ms(output_mb, device.compare_gbps) * (copies - 1)
    )
    return copies * per_copy + compare


@dataclass(frozen=True)
class EndToEndBreakdown:
    """End-to-end time decomposition of one benchmark run (milliseconds).

    Attributes:
        name: benchmark name.
        cpu_ms: non-replicated host-side time.
        alloc_ms / h2d_ms / launch_ms / kernel_ms / d2h_ms: GPU-protocol
            components (already multiplied by the redundancy factor).
        compare_ms: DCLS output comparison (redundant runs only).
        sync_ms: serialization-barrier overhead (redundant runs only).
    """

    name: str
    cpu_ms: float
    alloc_ms: float
    h2d_ms: float
    launch_ms: float
    kernel_ms: float
    d2h_ms: float
    compare_ms: float = 0.0
    sync_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """Total end-to-end time."""
        return (
            self.cpu_ms + self.alloc_ms + self.h2d_ms + self.launch_ms
            + self.kernel_ms + self.d2h_ms + self.compare_ms + self.sync_ms
        )


def cots_end_to_end(benchmark: RodiniaBenchmark,
                    device: Optional[COTSDevice] = None, *,
                    redundant: bool = False,
                    copies: int = 2,
                    kernel_ms_override: Optional[float] = None
                    ) -> EndToEndBreakdown:
    """End-to-end execution-time model of one benchmark.

    Args:
        benchmark: the benchmark (its :class:`COTSProfile` is used).
        device: platform parameters (GTX-1050-Ti-like defaults).
        redundant: model the paper's redundant-serialized execution
            (everything GPU-side paid ``copies`` times + DCLS comparison).
        copies: redundancy degree for the redundant variant.
        kernel_ms_override: replace the profile's kernel time, e.g. with
            a simulator-derived value.

    Returns:
        The :class:`EndToEndBreakdown`; ``.total_ms`` is the Figure 5 bar.
    """
    if copies < 2 and redundant:
        raise ConfigurationError("redundant execution needs >= 2 copies")
    device = device or COTSDevice()
    profile: COTSProfile = benchmark.cots
    kernel_ms = (
        kernel_ms_override if kernel_ms_override is not None
        else profile.kernel_ms
    )
    factor = copies if redundant else 1
    h2d = device.transfer_ms(profile.input_mb, device.h2d_gbps)
    d2h = device.transfer_ms(profile.output_mb, device.d2h_gbps)
    breakdown = EndToEndBreakdown(
        name=benchmark.name,
        cpu_ms=profile.cpu_ms,
        alloc_ms=profile.alloc_buffers * device.alloc_ms * factor,
        h2d_ms=h2d * factor,
        launch_ms=profile.n_launches * device.launch_overhead_ms * factor,
        kernel_ms=kernel_ms * factor,
        d2h_ms=d2h * factor,
        compare_ms=(
            device.transfer_ms(profile.output_mb, device.compare_gbps)
            * (copies - 1)
            if redundant
            else 0.0
        ),
        sync_ms=(
            profile.n_launches * device.sync_overhead_ms * copies
            if redundant
            else 0.0
        ),
    )
    return breakdown
