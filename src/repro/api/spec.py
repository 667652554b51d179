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
produced them.  Every spec and artifact class in :mod:`repro.api` gets
that JSON form from one codec derived from its fields (:class:`Codec`,
:class:`SpecCodec` for the top-level specs that carry a
``config_hash``, and :class:`ReportCodec` for the saved reports that
carry a ``digest()``; rules in ``docs/API.md``, "Spec JSON form").
"""

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    NoReturn,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ConfigurationError, ReproError
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
    "Codec",
    "SpecCodec",
    "ReportCodec",
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
# the field-derived JSON codec
# ----------------------------------------------------------------------
class _Plan(NamedTuple):
    """One class's codec plan (see :func:`_plan`)."""

    known: FrozenSet[str]
    #: the class's :attr:`Codec.derived_keys`
    derived: Tuple[str, ...]
    #: (field name, JSON scalar needing no encoding, omitted while None)
    encode: Tuple[Tuple[str, bool, bool], ...]
    #: (field name, error label, decoder or None, required, Optional-typed)
    decode: Tuple[Tuple[str, str, Any, bool, bool], ...]


_C = TypeVar("_C", bound="Codec")
_R = TypeVar("_R", bound="ReportCodec")


def _reject(label: str, expected: str, value: Any) -> NoReturn:
    raise ConfigurationError(f"{label} must be {expected}, got {value!r}")


def _decoder(tp: Any) -> Optional[Callable[[Any, str], Any]]:
    """``decode(value, label)`` for a field type; ``None`` passes through."""
    if isinstance(tp, type) and issubclass(tp, Codec):
        def decode_codec(value: Any, label: str) -> Any:
            if not isinstance(value, Mapping):
                _reject(label, "an object", value)
            try:
                return tp.from_dict(value)
            except ConfigurationError as exc:
                # name the field the nested object sits in
                raise type(exc)(f"{label}: {exc}") from None
        return decode_codec
    sequence = get_origin(tp)
    if sequence in (tuple, list):
        args = get_args(tp)
        variadic = sequence is list or args[-1] is Ellipsis
        decoders = [_decoder(arg) for arg in args if arg is not Ellipsis]

        def decode_sequence(value: Any, label: str) -> Any:
            if not isinstance(value, (list, tuple)) or (
                    not variadic and len(value) != len(decoders)):
                _reject(label, "a list", value)
            per_item = repeat(decoders[0]) if variadic else decoders
            return sequence(
                item if decode is None else decode(item, f"{label}[{i}]")
                for i, (decode, item) in enumerate(zip(per_item, value))
            )
        return decode_sequence
    if get_origin(tp) is dict:
        decode_item = _decoder(get_args(tp)[1])

        def decode_dict(value: Any, label: str) -> Any:
            if not isinstance(value, Mapping):
                _reject(label, "an object", value)
            return {
                key: item if decode_item is None
                else decode_item(item, f"{label}[{key!r}]")
                for key, item in value.items()
            }
        return decode_dict
    if tp is float:
        def decode_number(value: Any, label: str) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _reject(label, "a number", value)
            return value
        return decode_number
    expected = {int: "an integer", str: "a string", bool: "a boolean"}.get(tp)
    if expected is None:
        return None

    def decode_scalar(value: Any, label: str) -> Any:
        if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
            _reject(label, expected, value)
        return value
    return decode_scalar


# cached: specs are read on every command's cold path, and deriving a
# plan costs more than decoding with it
@lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    encode, decode = [], []
    for f in fields(cls):
        # a live type unless the defining module postpones annotations
        # (resolving those strings costs a compile each)
        tp = get_type_hints(cls)[f.name] if isinstance(f.type, str) else f.type
        args = get_args(tp)
        optional = get_origin(tp) is Union and type(None) in args
        if optional:
            tp = next(arg for arg in args if arg is not type(None))
        required = f.default is MISSING and f.default_factory is MISSING
        encode.append((f.name, tp in (int, float, str, bool),
                       bool(f.metadata.get("omit_none"))))
        decode.append((f.name, f"{cls.__name__}.{f.name}", _decoder(tp),
                       required, optional))
    derived = cls.derived_keys
    return _Plan(frozenset(f.name for f in fields(cls)).union(derived),
                 derived, tuple(encode), tuple(decode))


def _encode(value: Any) -> Any:
    if isinstance(value, Codec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(value[key]) for key in sorted(value)}
    return value


def _difference(value: Any, expected: Any, data: Any,
                label: str) -> Optional[str]:
    """Where ``data`` first differs from ``expected``, the JSON form of
    ``value``, in sorted-key order (``None`` where they are equal)."""
    same = type(expected) is type(data)  # bool, int and float differ
    if same and isinstance(expected, dict):
        codec = isinstance(value, Codec)
        for key in sorted(set(expected).union(data)):
            path = f"{label}.{key}" if codec else f"{label}[{key!r}]"
            if key not in data or key not in expected:
                return path + (" is missing" if key not in data
                               else " is not written")
            found = _difference(getattr(value, key) if codec else value[key],
                                expected[key], data[key], path)
            if found:
                return found
        return None
    if same and isinstance(expected, list) and len(data) == len(expected):
        return next(filter(None, (
            _difference(*item, f"{label}[{i}]")
            for i, item in enumerate(zip(value, expected, data)))), None)
    if same and expected == data:
        return None
    return f"{label} must be {expected!r}, got {data!r}"


class Codec:
    """JSON form derived from a frozen dataclass's fields.

    Nested codecs become objects, tuples and ``List[X]`` fields lists,
    and ``Dict[str, X]`` fields (open key sets) objects with sorted
    keys; every other value is stored as is.  A field whose metadata sets ``omit_none`` is
    left out while ``None``, so adding it keeps older specs' JSON (and
    hash).  Each name in :attr:`derived_keys` is a property computed
    from the fields: written by :meth:`to_dict`, never stored, and
    ignored on load (a :class:`ReportCodec` checks it).
    Decoding follows the field types: ``Optional`` fields take ``None``,
    a missing or ``None`` value of any other defaulted field keeps the
    default, and unknown keys or values of the wrong JSON type raise
    :class:`~repro.errors.ConfigurationError`.
    """

    #: properties written as keys of the JSON form
    derived_keys: Tuple[str, ...] = ()

    #: the error a failed load raises (a :class:`ReportCodec` re-raises
    #: a ``ConfigurationError`` raised while decoding as this type)
    load_error: Type[ReproError] = ConfigurationError

    @classmethod
    def known_keys(cls) -> FrozenSet[str]:
        """The keys the JSON form may hold: fields and derived keys."""
        return _plan(cls).known

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (nested dicts/lists, JSON-compatible)."""
        data: Dict[str, Any] = {}
        for name, plain, omit_none in _plan(type(self)).encode:
            value = getattr(self, name)
            if value is None and omit_none:
                continue
            data[name] = value if plain else _encode(value)
        for name in _plan(type(self)).derived:
            data[name] = _encode(getattr(self, name))
        return data

    @classmethod
    def from_dict(cls: Type[_C], data: Mapping[str, Any]) -> _C:
        """Inverse of :meth:`to_dict`; raises ``ConfigurationError`` on
        unknown or mistyped fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} expects a mapping, got {data!r}"
            )
        plan = _plan(cls)
        known = cls.known_keys()
        unknown = sorted(key for key in data if key not in known)
        if unknown:
            missing = [name for name, _, _, required, _ in plan.decode
                       if required and name not in data]
            raise ConfigurationError(
                f"{cls.__name__}: unknown field(s) {', '.join(unknown)}; "
                + (f"missing: {', '.join(missing)}; " if missing else "")
                + f"known: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, label, decode, required, optional in plan.decode:
            value = data.get(name)
            if value is None:
                if optional and name in data:
                    kwargs[name] = None
                elif required:
                    raise ConfigurationError(
                        f"{cls.__name__} requires a {name}"
                    )
                continue
            kwargs[name] = value if decode is None else decode(value, label)
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON form (sorted keys, round-trips exactly)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls: Type[_C], text: str) -> _C:
        """Parse from the JSON form; raises :attr:`load_error` on text that
        is not JSON, as :meth:`from_dict` does on a bad field."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls.load_error(
                f"invalid {cls.__name__} JSON: {exc}"
            ) from None
        return cls.from_dict(data)


class SpecCodec(Codec):
    """A top-level spec: the :class:`Codec` plus its provenance digest."""

    @property
    def config_hash(self) -> str:
        """Hex digest of the canonical JSON form (provenance key)."""
        return payload_digest(self.to_dict())


class ReportCodec(Codec):
    """A saved outcome: the :class:`Codec` plus its provenance digest,
    loading only its own canonical form.

    :meth:`from_dict` re-raises a decoding error as :attr:`load_error`,
    and refuses a payload that is not exactly :meth:`~Codec.to_dict` of
    what it loaded (same keys, same JSON types, same values), naming the
    first key path that differs in sorted-key order.
    """

    @classmethod
    def from_dict(cls: Type[_R], data: Mapping[str, Any]) -> _R:
        """Inverse of :meth:`to_dict`; raises :attr:`load_error` on a
        payload that is not the loaded report's canonical form."""
        try:
            report = super().from_dict(data)
        except ConfigurationError as exc:
            raise cls.load_error(str(exc)) from None
        difference = _difference(report, report.to_dict(), data,
                                 cls.__name__)
        if difference is not None:
            raise cls.load_error(difference)
        return report

    def digest(self) -> str:
        """Hex digest of the canonical form (aggregate provenance key)."""
        return payload_digest(self.to_dict())


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SMSpec(Codec):
    """JSON-able mirror of :class:`repro.gpu.config.SMConfig`."""

    max_threads: int = 1536
    max_blocks: int = 8
    registers: int = 65536
    shared_memory: int = 49152
    issue_throughput: float = 1.0

    def to_config(self) -> SMConfig:
        """Materialise the :class:`SMConfig` (validates values)."""
        return SMConfig(**self.to_dict())

    @classmethod
    def from_config(cls, sm: SMConfig) -> "SMSpec":
        """Mirror an existing :class:`SMConfig`."""
        return cls(**{f.name: getattr(sm, f.name) for f in fields(cls)})


_GPU_PRESETS: Dict[str, Callable[..., GPUConfig]] = {
    "gpgpusim": GPUConfig.gpgpusim_like,
    "gtx1050ti": GPUConfig.gtx1050ti_like,
    "generic": GPUConfig,
}


@dataclass(frozen=True)
class GPUSpec(Codec):
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
        return cls(preset=None, sm=SMSpec.from_config(gpu.sm),
                   **{f.name: getattr(gpu, f.name) for f in fields(cls)
                      if f.name not in ("preset", "sm")})


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec(Codec):
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
        return KernelDescriptor(**self.to_dict())

    @classmethod
    def from_descriptor(cls, kd: KernelDescriptor) -> "KernelSpec":
        """Mirror an existing descriptor."""
        return cls(**{f.name: getattr(kd, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class WorkloadSpec(Codec):
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


# ----------------------------------------------------------------------
# fault plan / COTS model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlanSpec(Codec):
    """The fault population of a campaign.

    Fault ``i`` of the population is
    :meth:`repro.faults.campaign.FaultCampaign.fault_at` ``(plan, i)``.

    Attributes:
        transient_ccf: number of chip-wide transient CCFs (voltage droops)
            with uniformly random fault instants.
        permanent_sm: number of permanent SM defects, uniform over SMs
            with uniformly random onset times.
        seu: number of local single-event upsets, uniform over (SM, time).
        seed: PRNG seed (campaigns are reproducible).
        phase_quantum: transient-CCF alignment quantum in work units.
    """

    transient_ccf: int = 200
    permanent_sm: int = 50
    seu: int = 100
    seed: int = 2019
    phase_quantum: float = 1.0

    def __post_init__(self) -> None:
        if min(self.transient_ccf, self.permanent_sm, self.seu) < 0:
            raise ConfigurationError("injection counts cannot be negative")
        if self.total_injections == 0:
            raise ConfigurationError("campaign must inject at least one fault")
        if self.phase_quantum <= 0:
            raise ConfigurationError("phase quantum must be positive")

    @property
    def total_injections(self) -> int:
        """Campaign size: the number of faults the plan injects."""
        return self.transient_ccf + self.permanent_sm + self.seu


@dataclass(frozen=True)
class CotsSpec(Codec):
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

    def to_device(self) -> "COTSDevice":
        """Materialise the :class:`COTSDevice` (validates values)."""
        from repro.gpu.cots import COTSDevice

        return COTSDevice(**self.to_dict())

    @classmethod
    def from_device(cls, device: "COTSDevice") -> "CotsSpec":
        """Mirror an existing device."""
        return cls(**{f.name: getattr(device, f.name) for f in fields(cls)})


# ----------------------------------------------------------------------
# the run spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec(SpecCodec):
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
