"""Spheres of replication (SoR).

Section II-B of the paper: diverse lockstep "is typically applied at
specific spheres of replication (SoR) so that physical redundancy is kept
low" — components outside the sphere rely on lighter mechanisms (ECC,
CRC) instead of replication.  This module captures the SoR chosen by the
paper (the GPU *cores/SMs*) and the resulting protection obligations for
everything outside it, which the safety-case example and documentation
consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "Protection",
    "SphereOfReplication",
    "ComponentProtection",
    "protection_plan",
    "PAPER_SOR",
]


class Protection(enum.Enum):
    """How a component is protected against (common-cause) faults."""

    REPLICATED_DIVERSE = "diverse redundant execution"
    ECC = "SECDED ECC"
    CRC = "CRC"
    LOCKSTEP = "DCLS lockstep"
    PERIODIC_TEST = "periodic self-test"


class SphereOfReplication(enum.Enum):
    """Granularity at which computation is replicated."""

    SM_CORES = "GPU SM cores"
    FULL_GPU = "entire GPU"
    FULL_SYSTEM = "entire system (sensors to actuators)"


#: The paper's chosen sphere: replicate computation on the SM cores only.
PAPER_SOR = SphereOfReplication.SM_CORES


@dataclass(frozen=True)
class ComponentProtection:
    """Protection assignment of one platform component.

    Attributes:
        component: component name (Figure 2 vocabulary).
        inside_sphere: whether the component is inside the SoR (and thus
            covered by replication).
        protection: the mechanism protecting it.
        rationale: why this mechanism suffices (paper reference).
    """

    component: str
    inside_sphere: bool
    protection: Protection
    rationale: str


def protection_plan(sphere: SphereOfReplication = PAPER_SOR
                    ) -> Tuple[ComponentProtection, ...]:
    """Protection obligations for every GPU-platform component.

    For the paper's SoR (SM cores) this reproduces the Section III-B
    analysis: register files, SM caches and the shared L2 already carry
    SECDED ECC in NVIDIA GPUs; interconnect/DRAM interfaces use ECC/CRC;
    the kernel scheduler — which has *no* redundancy — needs periodic
    tests so its faults cannot become latent (Section IV-C); and the SM
    cores themselves are covered by diverse redundant execution.
    """
    inside = {
        SphereOfReplication.SM_CORES: {"SM cores (CUDA/LD-ST/SFU)"},
        SphereOfReplication.FULL_GPU: {
            "SM cores (CUDA/LD-ST/SFU)", "register file", "SM L1/shared memory",
            "L2 cache", "kernel scheduler", "DRAM interface",
        },
        SphereOfReplication.FULL_SYSTEM: {
            "SM cores (CUDA/LD-ST/SFU)", "register file", "SM L1/shared memory",
            "L2 cache", "kernel scheduler", "DRAM interface", "DCLS CPU",
            "system interconnect",
        },
    }[sphere]

    def mk(component: str, protection: Protection, rationale: str
           ) -> ComponentProtection:
        return ComponentProtection(
            component=component,
            inside_sphere=component in inside,
            protection=(
                Protection.REPLICATED_DIVERSE
                if component in inside
                else protection
            ),
            rationale=rationale,
        )

    return (
        mk(
            "SM cores (CUDA/LD-ST/SFU)", Protection.REPLICATED_DIVERSE,
            "no explicit protection reported; covered by redundant kernels "
            "with SRRS/HALF diversity (Sections III-B, IV)",
        ),
        mk(
            "register file", Protection.ECC,
            "SECDED in NVIDIA GPUs since Fermi (paper ref. [10])",
        ),
        mk(
            "SM L1/shared memory", Protection.ECC,
            "SECDED in NVIDIA GPUs since Fermi (paper ref. [10])",
        ),
        mk(
            "L2 cache", Protection.ECC,
            "SECDED in NVIDIA GPUs since Fermi (paper ref. [10])",
        ),
        mk(
            "kernel scheduler", Protection.PERIODIC_TEST,
            "no redundancy; periodic tests keep placement faults from "
            "becoming latent (Section IV-C)",
        ),
        mk(
            "DRAM interface", Protection.ECC,
            "storage/communication protected by ECC/CRC (Section II-B)",
        ),
        mk(
            "system interconnect", Protection.CRC,
            "communication interfaces rely on CRC (Section II-B)",
        ),
        mk(
            "DCLS CPU", Protection.LOCKSTEP,
            "ASIL-D microcontroller performing launch/collect/compare "
            "(Section IV-A)",
        ),
    )
