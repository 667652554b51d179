"""Declarative vehicle-platform specifications — the input of :mod:`repro.platform`.

A :class:`PlatformSpec` describes a whole vehicle compute platform: a
fleet of heterogeneous :class:`DeviceSpec` GPUs (each a simulated
:class:`~repro.api.spec.GPUSpec` paired with a
:class:`~repro.gpu.cots.COTSDevice` host/transfer parameter set) and a
set of concurrent task streams (:class:`~repro.api.stream.StreamSpec`),
plus a :class:`PlacementSpec` that says how tasks are bound to devices.
Like every spec in :mod:`repro.api` all three are frozen dataclasses of
plain values: hashable, picklable, JSON-round-trippable, with a
``config_hash`` digest as provenance.

The task set is **order-canonicalised** at construction: tasks are
sorted by ``(label, config_hash)``, so two platforms that declare the
same tasks in a different order are *equal* specs with identical hashes
— the root of the platform determinism contract (see
``docs/PLATFORM.md``).

Example::

    from repro.api import DeviceSpec, PlatformSpec, StreamSpec

    spec = PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),
                 DeviceSpec(name="gpu1", preset="embedded-igpu")),
        tasks=(StreamSpec.for_task("camera-perception", frames=2000),
               StreamSpec.for_task("radar-cfar", frames=2000)),
    )
    assert PlatformSpec.from_json(spec.to_json()) == spec
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.spec import Codec, CotsSpec, GPUSpec, SpecCodec
from repro.api.stream import StreamSpec
from repro.errors import ConfigurationError
from repro.gpu.cots import COTSDevice, cots_device_preset

__all__ = [
    "DeviceSpec",
    "PlacementSpec",
    "PlatformSpec",
    "DEVICE_PRESETS",
    "PLACEMENT_POLICIES",
]

#: Placement-policy names accepted by :class:`PlacementSpec`.
PLACEMENT_POLICIES: Tuple[str, ...] = (
    "first_fit", "worst_fit", "pinned", "balanced",
)

#: Device presets: name -> (simulated GPU, COTS preset name).  The GPU
#: side scales the simulated kernel service times; the COTS side (see
#: :data:`repro.gpu.cots.COTS_DEVICE_PRESETS`) scales the per-frame
#: protocol overhead.  ``gtx1050ti`` is the paper's testbed;
#: ``pcie4-discrete`` / ``embedded-igpu`` are the faster/slower pair of
#: a heterogeneous vehicle platform.
DEVICE_PRESETS: Dict[str, Tuple[GPUSpec, str]] = {
    "gtx1050ti": (GPUSpec(preset="gtx1050ti"), "gtx1050ti"),
    "pcie4-discrete": (
        GPUSpec(preset="gtx1050ti", name="pcie4-discrete",
                clock_mhz=1900.0, dram_bandwidth=120.0,
                dispatch_latency=6000.0),
        "pcie4-discrete",
    ),
    "embedded-igpu": (
        GPUSpec(preset="gtx1050ti", name="embedded-igpu", num_sms=4,
                clock_mhz=900.0, dram_bandwidth=40.0,
                dispatch_latency=12000.0),
        "embedded-igpu",
    ),
}


@dataclass(frozen=True)
class DeviceSpec(Codec):
    """One GPU of the vehicle platform.

    Attributes:
        name: platform-unique device identifier (e.g. ``"gpu0"``).
        preset: device preset name (see :data:`DEVICE_PRESETS`), or
            ``None`` for a fully explicit device.
        gpu: simulated-GPU override; ``None`` keeps the preset's GPU.
        cots: host/transfer parameter override; ``None`` keeps the
            preset's :class:`~repro.gpu.cots.COTSDevice`.
        capacity: maximum admitted utilisation of this device (sum of
            placed task demands); placement rejects anything beyond it.
    """

    name: str
    preset: Optional[str] = "gtx1050ti"
    gpu: Optional[GPUSpec] = None
    cots: Optional[CotsSpec] = None
    capacity: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("device name must be non-empty")
        if self.preset is not None and self.preset not in DEVICE_PRESETS:
            raise ConfigurationError(
                f"unknown device preset {self.preset!r}; "
                f"known: {', '.join(sorted(DEVICE_PRESETS))}"
            )
        if self.preset is None and self.gpu is None:
            raise ConfigurationError(
                f"device {self.name!r}: a preset-less device needs an "
                "explicit gpu"
            )
        if self.capacity <= 0:
            raise ConfigurationError(
                f"device {self.name!r}: capacity must be positive"
            )

    # ------------------------------------------------------------------
    def gpu_spec(self) -> GPUSpec:
        """The simulated GPU this device runs (override or preset)."""
        if self.gpu is not None:
            return self.gpu
        assert self.preset is not None  # enforced in __post_init__
        return DEVICE_PRESETS[self.preset][0]

    def cots_device(self) -> COTSDevice:
        """The host/transfer parameter set (override or preset)."""
        if self.cots is not None:
            return self.cots.to_device()
        if self.preset is not None:
            return cots_device_preset(DEVICE_PRESETS[self.preset][1])
        return COTSDevice()


@dataclass(frozen=True)
class PlacementSpec(Codec):
    """How task streams are bound to devices.

    Attributes:
        policy: ``"first_fit"`` (tasks in canonical order onto the first
            device with headroom), ``"worst_fit"`` (onto the currently
            least-utilised device with headroom), ``"balanced"``
            (longest-demand-first worst-fit bin packing) or ``"pinned"``
            (every task explicitly pinned).
        pins: explicit ``(task label, device name)`` bindings.  Pins are
            hard constraints under every policy; the ``pinned`` policy
            additionally requires them to cover the whole task set.
    """

    policy: str = "balanced"
    pins: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {self.policy!r}; "
                f"known: {', '.join(PLACEMENT_POLICIES)}"
            )
        pins = tuple(sorted({(str(task), str(device))
                             for task, device in self.pins}))
        seen: Dict[str, str] = {}
        for task, device in pins:
            if task in seen and seen[task] != device:
                raise ConfigurationError(
                    f"task {task!r} is pinned to both {seen[task]!r} "
                    f"and {device!r}"
                )
            seen[task] = device
        object.__setattr__(self, "pins", pins)

    @property
    def pin_map(self) -> Dict[str, str]:
        """Pins as a ``task label -> device name`` mapping."""
        return dict(self.pins)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-compatible; pins as a sorted mapping)."""
        return {
            "policy": self.policy,
            "pins": {task: device for task, device in self.pins},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementSpec":
        """Inverse of :meth:`to_dict` (pins as a mapping or as pairs)."""
        pins = data.get("pins") if isinstance(data, Mapping) else None
        if isinstance(pins, Mapping):
            data = dict(data, pins=sorted(pins.items()))
        return super().from_dict(data)


@dataclass(frozen=True)
class PlatformSpec(SpecCodec):
    """One declarative multi-device vehicle platform.

    Attributes:
        devices: the GPU fleet, in declaration order (``first_fit``
            scans devices in this order).  Names must be unique.
        tasks: the concurrent task streams.  Labels must be unique (set
            distinct :attr:`~repro.api.stream.StreamSpec.tag` values for
            replicas); the tuple is canonicalised to ``(label,
            config_hash)`` order at construction, so declaration order
            never changes the spec, its hash, or the platform report.
        placement: the placement policy and pins.
        tag: free-form label carried into the report.
    """

    devices: Tuple[DeviceSpec, ...]
    tasks: Tuple[StreamSpec, ...]
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    tag: str = ""

    def __post_init__(self) -> None:
        devices = tuple(self.devices)
        tasks = tuple(sorted(self.tasks,
                             key=lambda t: (t.label, t.config_hash)))
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "tasks", tasks)
        if not devices:
            raise ConfigurationError("platform needs at least one device")
        if not tasks:
            raise ConfigurationError("platform needs at least one task")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"duplicate device name(s): {', '.join(dupes)}"
            )
        labels = [t.label for t in tasks]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ConfigurationError(
                f"duplicate task label(s): {', '.join(dupes)} — give "
                "replicas distinct StreamSpec tags"
            )
        known = set(names)
        for task, device in self.placement.pins:
            if device not in known:
                raise ConfigurationError(
                    f"task {task!r} is pinned to unknown device {device!r}"
                )

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable identity (tag or a devices-x-tasks summary)."""
        return self.tag or (
            f"{len(self.devices)}-device/{len(self.tasks)}-task platform"
        )

    def device(self, name: str) -> DeviceSpec:
        """The device with the given name.

        Raises:
            ConfigurationError: for unknown device names.
        """
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise ConfigurationError(
            f"unknown device {name!r}; "
            f"known: {', '.join(d.name for d in self.devices)}"
        )
