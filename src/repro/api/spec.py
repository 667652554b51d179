"""Declarative run specifications — the input side of :mod:`repro.api`.

A :class:`RunSpec` describes *one* execution of the reproduction's models:
which GPU (:class:`GPUSpec`), which workload (:class:`WorkloadSpec`), which
scheduling policy and redundancy mode, and which optional analyses ride
along (baseline makespan, kernel classification, COTS end-to-end model,
fault-injection campaign).  Every spec is a frozen dataclass of plain
values, so it is hashable, picklable (the batch executor ships specs to
worker processes) and JSON-round-trippable::

    spec = RunSpec(workload=WorkloadSpec(benchmark="hotspot"))
    assert RunSpec.from_json(spec.to_json()) == spec

The :attr:`RunSpec.config_hash` digest of the canonical JSON form is
recorded in every :class:`~repro.api.artifact.RunArtifact` as provenance,
so results can always be traced back to the exact configuration that
produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.report import CampaignConfig
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor
from repro.journal import payload_digest
from repro.workloads.synthetic import (
    make_friendly_kernel,
    make_heavy_kernel,
    make_narrow_kernel,
    make_short_kernel,
)

# specs are read on every command's cold path, so the model tables they
# name (Rodinia chains, the COTS device model) load where they are used
if TYPE_CHECKING:
    from repro.gpu.cots import COTSDevice

__all__ = [
    "SMSpec",
    "GPUSpec",
    "KernelSpec",
    "WorkloadSpec",
    "FaultPlanSpec",
    "CotsSpec",
    "RunSpec",
    "REDUNDANCY_COPIES",
    "SYNTHETIC_KERNELS",
]

#: redundancy-mode name -> number of kernel copies launched.
REDUNDANCY_COPIES: Dict[str, int] = {"none": 1, "dmr": 2, "tmr": 3}

#: synthetic-workload name -> kernel factory (see :mod:`repro.workloads.synthetic`).
SYNTHETIC_KERNELS: Dict[str, Callable[[GPUConfig], KernelDescriptor]] = {
    "short": make_short_kernel,
    "heavy": make_heavy_kernel,
    "friendly": make_friendly_kernel,
    "narrow": make_narrow_kernel,
    "narrow-long": lambda gpu: make_narrow_kernel(
        gpu, name="synthetic/narrow-long"
    ),
}


# ----------------------------------------------------------------------
# generic (de)serialisation helpers
# ----------------------------------------------------------------------
def _check_keys(cls: type, data: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: unknown field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )


def _flat_from_dict(cls, data: Mapping[str, Any]):
    """Build a flat (non-nested) spec dataclass from a mapping."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{cls.__name__} expects a mapping, got {data!r}")
    _check_keys(cls, data)
    return cls(**data)


def _flat_to_dict(obj) -> Dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SMSpec:
    """JSON-able mirror of :class:`repro.gpu.config.SMConfig`."""

    max_threads: int = 1536
    max_blocks: int = 8
    registers: int = 65536
    shared_memory: int = 49152
    issue_throughput: float = 1.0

    def to_config(self) -> SMConfig:
        """Materialise the :class:`SMConfig` (validates values)."""
        return SMConfig(**_flat_to_dict(self))

    @classmethod
    def from_config(cls, sm: SMConfig) -> "SMSpec":
        """Mirror an existing :class:`SMConfig`."""
        return cls(
            max_threads=sm.max_threads,
            max_blocks=sm.max_blocks,
            registers=sm.registers,
            shared_memory=sm.shared_memory,
            issue_throughput=sm.issue_throughput,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SMSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        return _flat_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible)."""
        return _flat_to_dict(self)


_GPU_PRESETS: Dict[str, Callable[..., GPUConfig]] = {
    "gpgpusim": GPUConfig.gpgpusim_like,
    "gtx1050ti": GPUConfig.gtx1050ti_like,
    "generic": GPUConfig,
}


@dataclass(frozen=True)
class GPUSpec:
    """GPU selection: a preset plus optional overrides, or a full config.

    Attributes:
        preset: ``"gpgpusim"`` (the paper's simulated platform),
            ``"gtx1050ti"`` (the COTS platform), ``"generic"`` — or
            ``None`` for a fully explicit configuration.
        name / num_sms / clock_mhz / dram_bandwidth / dispatch_latency /
            allow_kernel_mixing / sm: overrides applied on top of the
            preset (``None`` keeps the preset's value).
    """

    preset: Optional[str] = "gpgpusim"
    name: Optional[str] = None
    num_sms: Optional[int] = None
    clock_mhz: Optional[float] = None
    dram_bandwidth: Optional[float] = None
    dispatch_latency: Optional[float] = None
    allow_kernel_mixing: Optional[bool] = None
    sm: Optional[SMSpec] = None

    def __post_init__(self) -> None:
        if self.preset is not None and self.preset not in _GPU_PRESETS:
            raise ConfigurationError(
                f"unknown GPU preset {self.preset!r}; "
                f"known: {', '.join(sorted(_GPU_PRESETS))}"
            )

    # ------------------------------------------------------------------
    def to_config(self) -> GPUConfig:
        """Materialise the :class:`GPUConfig` this spec describes."""
        if self.preset == "gpgpusim" and self.num_sms is not None:
            # the preset factory takes the SM count directly (keeps the
            # derived name identical to the legacy call paths)
            base = GPUConfig.gpgpusim_like(num_sms=self.num_sms)
            skip = {"num_sms"}
        elif self.preset is not None:
            base = _GPU_PRESETS[self.preset]()
            skip = set()
        else:
            base = GPUConfig()
            skip = set()
        overrides: Dict[str, Any] = {}
        for name in ("name", "num_sms", "clock_mhz", "dram_bandwidth",
                     "dispatch_latency", "allow_kernel_mixing"):
            value = getattr(self, name)
            if value is not None and name not in skip:
                overrides[name] = value
        if self.sm is not None:
            overrides["sm"] = self.sm.to_config()
        return replace(base, **overrides) if overrides else base

    @classmethod
    def from_config(cls, gpu: GPUConfig) -> "GPUSpec":
        """Mirror an arbitrary :class:`GPUConfig` exactly (no preset)."""
        return cls(
            preset=None,
            name=gpu.name,
            num_sms=gpu.num_sms,
            clock_mhz=gpu.clock_mhz,
            dram_bandwidth=gpu.dram_bandwidth,
            dispatch_latency=gpu.dispatch_latency,
            allow_kernel_mixing=gpu.allow_kernel_mixing,
            sm=SMSpec.from_config(gpu.sm),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible, nested ``sm``)."""
        data = _flat_to_dict(self)
        data["sm"] = self.sm.to_dict() if self.sm is not None else None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GPUSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"GPUSpec expects a mapping, got {data!r}")
        _check_keys(cls, data)
        payload = dict(data)
        if payload.get("sm") is not None:
            payload["sm"] = SMSpec.from_dict(payload["sm"])
        return cls(**payload)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """JSON-able mirror of :class:`repro.gpu.kernel.KernelDescriptor`."""

    name: str
    grid_blocks: int
    threads_per_block: int
    regs_per_thread: int = 24
    shared_mem_per_block: int = 0
    work_per_block: float = 1000.0
    bytes_per_block: float = 0.0
    output_bytes: int = 4096
    input_bytes: int = 4096

    def to_descriptor(self) -> KernelDescriptor:
        """Materialise the :class:`KernelDescriptor` (validates values)."""
        return KernelDescriptor(**_flat_to_dict(self))

    @classmethod
    def from_descriptor(cls, kd: KernelDescriptor) -> "KernelSpec":
        """Mirror an existing descriptor."""
        return cls(
            name=kd.name,
            grid_blocks=kd.grid_blocks,
            threads_per_block=kd.threads_per_block,
            regs_per_thread=kd.regs_per_thread,
            shared_mem_per_block=kd.shared_mem_per_block,
            work_per_block=kd.work_per_block,
            bytes_per_block=kd.bytes_per_block,
            output_bytes=kd.output_bytes,
            input_bytes=kd.input_bytes,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "KernelSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        return _flat_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible)."""
        return _flat_to_dict(self)


@dataclass(frozen=True)
class WorkloadSpec:
    """The kernel chain a run executes — exactly one source must be set.

    Attributes:
        benchmark: Rodinia-suite benchmark name (chain + COTS profile).
        synthetic: synthetic archetype name (see :data:`SYNTHETIC_KERNELS`);
            the kernel is generated against the run's GPU configuration.
        kernels: explicit kernel chain.
        repeat: replicate the resolved chain this many times.
    """

    benchmark: Optional[str] = None
    synthetic: Optional[str] = None
    kernels: Tuple[KernelSpec, ...] = ()
    repeat: int = 1

    def __post_init__(self) -> None:
        sources = sum(
            [self.benchmark is not None, self.synthetic is not None,
             bool(self.kernels)]
        )
        if sources != 1:
            raise ConfigurationError(
                "workload must set exactly one of benchmark / synthetic / "
                f"kernels (got {sources} sources)"
            )
        if self.synthetic is not None and self.synthetic not in SYNTHETIC_KERNELS:
            raise ConfigurationError(
                f"unknown synthetic workload {self.synthetic!r}; "
                f"known: {', '.join(sorted(SYNTHETIC_KERNELS))}"
            )
        if self.repeat < 1:
            raise ConfigurationError("workload repeat must be >= 1")
        if self.kernels:
            object.__setattr__(self, "kernels", tuple(self.kernels))

    # ------------------------------------------------------------------
    def resolve(self, gpu: GPUConfig) -> Tuple[KernelDescriptor, ...]:
        """The kernel chain to simulate (may be empty for COTS-only
        benchmarks such as ``cfd``)."""
        if self.benchmark is not None:
            from repro.workloads.rodinia import get_benchmark

            chain: Tuple[KernelDescriptor, ...] = get_benchmark(
                self.benchmark
            ).kernels
        elif self.synthetic is not None:
            chain = (SYNTHETIC_KERNELS[self.synthetic](gpu),)
        else:
            chain = tuple(k.to_descriptor() for k in self.kernels)
        return chain * self.repeat

    @property
    def label(self) -> str:
        """Short human-readable identity used for tags and tables."""
        if self.benchmark is not None:
            return self.benchmark
        if self.synthetic is not None:
            return f"synthetic/{self.synthetic}"
        return self.kernels[0].name if len(self.kernels) == 1 else (
            f"{len(self.kernels)}-kernel chain"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible, nested ``kernels``)."""
        return {
            "benchmark": self.benchmark,
            "synthetic": self.synthetic,
            "kernels": [k.to_dict() for k in self.kernels],
            "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"WorkloadSpec expects a mapping, got {data!r}"
            )
        _check_keys(cls, data)
        payload = dict(data)
        payload["kernels"] = tuple(
            KernelSpec.from_dict(k) for k in payload.get("kernels") or ()
        )
        return cls(**payload)


# ----------------------------------------------------------------------
# fault plan / COTS model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlanSpec:
    """JSON-able mirror of :class:`repro.faults.campaign.CampaignConfig`."""

    transient_ccf: int = 200
    permanent_sm: int = 50
    seu: int = 100
    seed: int = 2019
    phase_quantum: float = 1.0

    def to_config(self, seed: Optional[int] = None) -> CampaignConfig:
        """Materialise the campaign config, optionally overriding the seed."""
        data = _flat_to_dict(self)
        if seed is not None:
            data["seed"] = seed
        return CampaignConfig(**data)

    @classmethod
    def from_config(cls, config: CampaignConfig) -> "FaultPlanSpec":
        """Mirror an existing :class:`CampaignConfig`."""
        return cls(
            transient_ccf=config.transient_ccf,
            permanent_sm=config.permanent_sm,
            seu=config.seu,
            seed=config.seed,
            phase_quantum=config.phase_quantum,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlanSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        return _flat_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible)."""
        return _flat_to_dict(self)


@dataclass(frozen=True)
class CotsSpec:
    """JSON-able mirror of :class:`repro.gpu.cots.COTSDevice`.

    When present on a :class:`RunSpec` whose workload is a suite benchmark,
    the artifact gains a COTS end-to-end section (baseline vs redundant-
    serialized milliseconds — the Figure 5 bars).
    """

    h2d_gbps: float = 6.0
    d2h_gbps: float = 6.0
    launch_overhead_ms: float = 0.008
    alloc_ms: float = 0.15
    free_ms: float = 0.0
    compare_gbps: float = 4.0
    sync_overhead_ms: float = 0.02

    def to_device(self) -> COTSDevice:
        """Materialise the :class:`COTSDevice` (validates values)."""
        from repro.gpu.cots import COTSDevice

        return COTSDevice(**_flat_to_dict(self))

    @classmethod
    def from_device(cls, device: COTSDevice) -> "CotsSpec":
        """Mirror an existing device."""
        return cls(
            h2d_gbps=device.h2d_gbps,
            d2h_gbps=device.d2h_gbps,
            launch_overhead_ms=device.launch_overhead_ms,
            alloc_ms=device.alloc_ms,
            free_ms=device.free_ms,
            compare_gbps=device.compare_gbps,
            sync_overhead_ms=device.sync_overhead_ms,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CotsSpec":
        """Build the spec from a mapping; raises on unknown fields."""
        return _flat_from_dict(cls, data)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible)."""
        return _flat_to_dict(self)


# ----------------------------------------------------------------------
# the run spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One declarative run of the reproduction's models.

    Attributes:
        workload: what to execute (see :class:`WorkloadSpec`).
        gpu: which GPU to model (see :class:`GPUSpec`).
        policy: kernel-scheduler registry name (``"default"``, ``"srrs"``,
            ``"half"``, ...).
        redundancy: ``"none"`` (plain simulation), ``"dmr"`` or ``"tmr"``.
        copies: explicit redundancy degree, overriding ``redundancy``'s
            default mapping (None keeps the mapping).
        simulate: run the discrete-event simulator (disable for
            classification-only or COTS-only specs).
        baseline: also simulate the non-redundant chain and record its
            makespan (redundant runs only).
        classify: include a Figure 3 classification report per kernel.
        cots: include the COTS end-to-end model (benchmark workloads only).
        faults: run a fault-injection campaign against the redundant trace.
        phase_tolerance: diversity phase-alignment threshold (work units).
        seed: overrides the fault plan's PRNG seed; batch execution keeps
            seeds per-spec, so results are identical at any worker count.
        tag: free-form label carried into traces and artifacts.
    """

    workload: WorkloadSpec
    gpu: GPUSpec = field(default_factory=GPUSpec)
    policy: str = "srrs"
    redundancy: str = "dmr"
    copies: Optional[int] = None
    simulate: bool = True
    baseline: bool = False
    classify: bool = False
    cots: Optional[CotsSpec] = None
    faults: Optional[FaultPlanSpec] = None
    # repro.redundancy.diversity.DEFAULT_PHASE_TOLERANCE, spelled out so
    # reading a spec loads no trace analysis (a test pins them equal)
    phase_tolerance: float = 1.0
    seed: Optional[int] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.redundancy not in REDUNDANCY_COPIES:
            raise ConfigurationError(
                f"unknown redundancy mode {self.redundancy!r}; "
                f"known: {', '.join(sorted(REDUNDANCY_COPIES))}"
            )
        if not self.policy:
            raise ConfigurationError("policy must be non-empty")
        if self.copies is not None and self.copies < 1:
            raise ConfigurationError("copies must be >= 1")
        if self.phase_tolerance < 0:
            raise ConfigurationError("phase_tolerance cannot be negative")
        if self.faults is not None and not self.simulate:
            raise ConfigurationError(
                "a fault campaign requires simulate=True (it attacks the "
                "simulated redundant trace)"
            )
        if self.effective_copies < 2:
            if self.faults is not None:
                raise ConfigurationError(
                    "a fault campaign requires a redundant run (copies >= 2)"
                )
            if self.baseline:
                raise ConfigurationError(
                    "baseline makespan only applies to redundant runs"
                )
        if self.cots is not None and self.workload.benchmark is None:
            raise ConfigurationError(
                "the COTS end-to-end model requires a benchmark workload "
                "(its COTS profile provides the host-side decomposition)"
            )

    # ------------------------------------------------------------------
    @property
    def effective_copies(self) -> int:
        """The redundancy degree actually launched."""
        if self.copies is not None:
            return self.copies
        return REDUNDANCY_COPIES[self.redundancy]

    @property
    def label(self) -> str:
        """Human-readable identity used in tables (tag or workload)."""
        return self.tag or self.workload.label

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (nested dicts/lists, JSON-compatible)."""
        return {
            "workload": self.workload.to_dict(),
            "gpu": self.gpu.to_dict(),
            "policy": self.policy,
            "redundancy": self.redundancy,
            "copies": self.copies,
            "simulate": self.simulate,
            "baseline": self.baseline,
            "classify": self.classify,
            "cots": self.cots.to_dict() if self.cots is not None else None,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "phase_tolerance": self.phase_tolerance,
            "seed": self.seed,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; raises on unknown fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"RunSpec expects a mapping, got {data!r}")
        _check_keys(cls, data)
        if "workload" not in data:
            raise ConfigurationError("RunSpec requires a workload")
        payload = dict(data)
        payload["workload"] = WorkloadSpec.from_dict(payload["workload"])
        if payload.get("gpu") is not None:
            payload["gpu"] = GPUSpec.from_dict(payload["gpu"])
        else:
            payload.pop("gpu", None)
        if payload.get("cots") is not None:
            payload["cots"] = CotsSpec.from_dict(payload["cots"])
        if payload.get("faults") is not None:
            payload["faults"] = FaultPlanSpec.from_dict(payload["faults"])
        return cls(**payload)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON form (sorted keys, round-trips exactly)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from its JSON form."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid RunSpec JSON: {exc}") from None
        return cls.from_dict(data)

    @property
    def config_hash(self) -> str:
        """Hex digest of the canonical JSON form (provenance key)."""
        return payload_digest(self.to_dict())
