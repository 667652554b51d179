"""Named, parameterized :class:`RunSpec` builders — the scenario registry.

Every paper artifact and extension experiment is re-expressed here as a
scenario: a named function that expands a few parameters into the exact
list of :class:`~repro.api.spec.RunSpec` objects the experiment needs.
The figure commands, tests and benchmarks all build their specs through
this registry and run them on the :class:`~repro.api.engine.Engine`, so
"the Figure 4 experiment" has exactly one definition::

    from repro.api import build_scenario, normalized_busy_cycles, run_many

    specs = build_scenario("fig4", benchmarks=("hotspot", "nn"))
    ratios = normalized_busy_cycles(run_many(specs, workers=4))
    ratios["nn"]["half"]  # HALF busy cycles over the default policy's

Third-party extensions can add their own scenarios with
:func:`register_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from repro.api.spec import (
    CotsSpec,
    FaultPlanSpec,
    GPUSpec,
    KernelSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.cots import COTSDevice
from repro.gpu.scheduler.registry import PAPER_POLICIES
from repro.workloads.rodinia import FIG4_BENCHMARKS, FIG5_BENCHMARKS

if TYPE_CHECKING:
    from repro.api.artifact import RunArtifact

__all__ = [
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_scenario",
    "normalized_busy_cycles",
]

#: the Figure 3 / policy-fit synthetic archetypes, in paper order.
FIG3_SYNTHETICS: Tuple[str, ...] = ("short", "heavy", "friendly", "narrow-long")


@dataclass(frozen=True)
class Scenario:
    """One registered scenario.

    Attributes:
        name: registry key.
        description: one-line summary shown by ``python -m repro scenarios``.
        builder: callable expanding keyword parameters into specs.
    """

    name: str
    description: str
    builder: Callable[..., List[RunSpec]]

    def build(self, **params) -> List[RunSpec]:
        """Expand the scenario into its run specifications."""
        return self.builder(**params)


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(name: str, description: str
                      ) -> Callable[[Callable[..., List[RunSpec]]],
                                    Callable[..., List[RunSpec]]]:
    """Decorator registering a spec builder under ``name``.

    Raises:
        ConfigurationError: when the name is already taken.
    """
    def _decorator(builder: Callable[..., List[RunSpec]]
                   ) -> Callable[..., List[RunSpec]]:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} already registered")
        _REGISTRY[name] = Scenario(
            name=name, description=description, builder=builder
        )
        return builder
    return _decorator


def get_scenario(name: str) -> Scenario:
    """Look up a scenario.

    Raises:
        ConfigurationError: for unknown names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_scenario(name: str, **params) -> List[RunSpec]:
    """Build the specs of one scenario (see :func:`get_scenario`)."""
    return get_scenario(name).build(**params)


def normalized_busy_cycles(artifacts: Iterable[RunArtifact]
                           ) -> Dict[str, Dict[str, float]]:
    """Pivot simulated artifacts to ``{tag: {policy: busy / default busy}}``.

    Figure 4, the policy fit and both sweeps report each run's GPU busy
    cycles normalised to the ``default`` policy's run of the same tag.
    Tags and policies keep the order of ``artifacts``.

    Raises:
        ConfigurationError: when a tag has no ``default`` policy run.
    """
    busy: Dict[str, Dict[str, float]] = {}
    for artifact in artifacts:
        busy.setdefault(artifact.spec.tag, {})[artifact.spec.policy] = (
            artifact.timing.busy_cycles
        )
    for tag, cycles in busy.items():
        if "default" not in cycles:
            raise ConfigurationError(
                f"tag {tag!r} has no default-policy run to normalise to"
            )
    return {
        tag: {policy: value / cycles["default"]
              for policy, value in cycles.items()}
        for tag, cycles in busy.items()
    }


# ----------------------------------------------------------------------
# parameter coercion helpers
# ----------------------------------------------------------------------
def _gpu_spec(gpu: Union[GPUSpec, GPUConfig, None],
              sms: Optional[int] = None) -> GPUSpec:
    """Accept a GPUSpec, a concrete GPUConfig, or None (paper default).

    Raises:
        ConfigurationError: when both ``gpu`` and ``sms`` are given —
            silently preferring one would run a configuration the caller
            did not ask for.
    """
    if gpu is not None and sms is not None:
        raise ConfigurationError(
            "pass either gpu or sms, not both (sms would be ignored)"
        )
    if isinstance(gpu, GPUSpec):
        return gpu
    if isinstance(gpu, GPUConfig):
        return GPUSpec.from_config(gpu)
    return GPUSpec(preset="gpgpusim", num_sms=sms)


def _cots_spec(device: Union[CotsSpec, COTSDevice, None]) -> CotsSpec:
    if isinstance(device, CotsSpec):
        return device
    if isinstance(device, COTSDevice):
        return CotsSpec.from_device(device)
    return CotsSpec()


# ----------------------------------------------------------------------
# generic front doors
# ----------------------------------------------------------------------
@register_scenario(
    "benchmark",
    "one redundant (or plain) run of a suite benchmark under one policy",
)
def _benchmark(benchmark: str = "hotspot", policy: str = "srrs",
               redundancy: str = "dmr", gpu=None, sms: Optional[int] = None,
               baseline: bool = False, faults=None) -> List[RunSpec]:
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=benchmark),
            gpu=_gpu_spec(gpu, sms),
            policy=policy,
            redundancy=redundancy,
            baseline=baseline,
            faults=faults,
            tag=benchmark,
        )
    ]


@register_scenario(
    "quickstart",
    "the README kernel under every paper policy (diversity vs overhead)",
)
def _quickstart(policies: Sequence[str] = PAPER_POLICIES,
                sms: Optional[int] = None) -> List[RunSpec]:
    kernel = KernelSpec(
        name="adas/object-detect", grid_blocks=36, threads_per_block=256,
        work_per_block=4000.0, bytes_per_block=3000.0,
    )
    return [
        RunSpec(
            workload=WorkloadSpec(kernels=(kernel,)),
            gpu=_gpu_spec(None, sms),
            policy=policy,
            tag="quickstart",
        )
        for policy in policies
    ]


# ----------------------------------------------------------------------
# paper figures
# ----------------------------------------------------------------------
@register_scenario(
    "fig4",
    "Figure 4: redundant-execution cycles per benchmark and policy",
)
def _fig4(benchmarks: Sequence[str] = FIG4_BENCHMARKS, gpu=None,
          sms: Optional[int] = None,
          policies: Sequence[str] = PAPER_POLICIES) -> List[RunSpec]:
    gpu_spec = _gpu_spec(gpu, sms)
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=name),
            gpu=gpu_spec,
            policy=policy,
            tag=name,
        )
        for name in benchmarks
        for policy in policies
    ]


@register_scenario(
    "fig5",
    "Figure 5: COTS end-to-end baseline vs redundant-serialized times",
)
def _fig5(benchmarks: Sequence[str] = FIG5_BENCHMARKS,
          device=None) -> List[RunSpec]:
    cots = _cots_spec(device)
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=name),
            simulate=False,
            cots=cots,
            tag=name,
        )
        for name in benchmarks
    ]


@register_scenario(
    "fig3",
    "Figure 3: kernel-category classification of the synthetic archetypes",
)
def _fig3(gpu=None, sms: Optional[int] = None,
          synthetics: Sequence[str] = FIG3_SYNTHETICS) -> List[RunSpec]:
    gpu_spec = _gpu_spec(gpu, sms)
    return [
        RunSpec(
            workload=WorkloadSpec(synthetic=name),
            gpu=gpu_spec,
            redundancy="none",
            simulate=False,
            classify=True,
            tag=f"synthetic/{name}",
        )
        for name in synthetics
    ]


# ----------------------------------------------------------------------
# extension experiments
# ----------------------------------------------------------------------
@register_scenario(
    "coverage",
    "E5: fault-injection coverage of every policy on one benchmark",
)
def _coverage(benchmark: str = "hotspot", gpu=None,
              sms: Optional[int] = None, config=None,
              policies: Sequence[str] = PAPER_POLICIES) -> List[RunSpec]:
    gpu_spec = _gpu_spec(gpu, sms)
    plan = config if config is not None else FaultPlanSpec()
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=benchmark),
            gpu=gpu_spec,
            policy=policy,
            faults=plan,
            tag=benchmark,
        )
        for policy in policies
    ]


@register_scenario(
    "policyfit",
    "Section IV-D: per-category policy overheads on synthetic archetypes",
)
def _policyfit(gpu=None, sms: Optional[int] = None,
               synthetics: Sequence[str] = FIG3_SYNTHETICS,
               policies: Sequence[str] = PAPER_POLICIES) -> List[RunSpec]:
    gpu_spec = _gpu_spec(gpu, sms)
    return [
        RunSpec(
            workload=WorkloadSpec(synthetic=name),
            gpu=gpu_spec,
            policy=policy,
            # classification is policy-independent; request it once per
            # kernel rather than per (kernel, policy)
            classify=policy == policies[0],
            tag=f"synthetic/{name}",
        )
        for name in synthetics
        for policy in policies
    ]


@register_scenario(
    "sweep-dispatch",
    "E9: dispatch-latency ablation (the natural-staggering knob)",
)
def _sweep_dispatch(latencies: Sequence[float] = (500.0, 1500.0, 3000.0,
                                                  6000.0, 12000.0),
                    benchmark: str = "hotspot", gpu=None,
                    policies: Sequence[str] = PAPER_POLICIES) -> List[RunSpec]:
    base = _gpu_spec(gpu)
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=benchmark),
            gpu=replace(base, dispatch_latency=float(latency)),
            policy=policy,
            tag=f"{benchmark}@{latency:g}",
        )
        for latency in latencies
        for policy in policies
    ]


@register_scenario(
    "sweep-sms",
    "E9: SM-count ablation (scaling toward bigger automotive GPUs)",
)
def _sweep_sms(sm_counts: Sequence[int] = (2, 4, 6, 8, 12, 16),
               benchmark: str = "hotspot", gpu=None,
               policies: Sequence[str] = PAPER_POLICIES) -> List[RunSpec]:
    base = _gpu_spec(gpu)
    return [
        RunSpec(
            workload=WorkloadSpec(benchmark=benchmark),
            gpu=replace(base, num_sms=int(count)),
            policy=policy,
            tag=f"{benchmark}@{count}sm",
        )
        for count in sm_counts
        for policy in policies
    ]
