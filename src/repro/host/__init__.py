"""Host-side models: the DCLS lockstep CPU, a CUDA-like API and the
five-step safety-critical offload protocol."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.host.api": ("DeviceBuffer", "GPUContext"),
    "repro.host.cpu": (
        "DCLSConfig", "DCLSProcessor", "HostOp", "LockstepError",
    ),
    "repro.host.pipeline": ("OffloadResult", "SafetyCriticalOffload"),
})
