"""Tests for the safety-case checker."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SafetyViolation
from repro.iso26262.asil import Asil
from repro.iso26262.fault_model import Ftti
from repro.iso26262.safety_case import (
    SafetyGoal,
    SafetyRequirement,
    SystemElement,
    check_requirement,
    check_system,
)


@pytest.fixture
def goal() -> SafetyGoal:
    return SafetyGoal(
        name="no undetected erroneous object list",
        asil=Asil.D,
        ftti=Ftti(100.0),
    )


def _gpu_elements(independent=True):
    """The paper's system: two ASIL-B GPU kernel copies, mutually
    redundant, independent when scheduled by SRRS/HALF."""
    a = SystemElement(
        name="gpu-copy-0", standalone_asil=Asil.B,
        redundant_with="gpu-copy-1", independent_of_peer=independent,
    )
    b = SystemElement(
        name="gpu-copy-1", standalone_asil=Asil.B,
        redundant_with="gpu-copy-0", independent_of_peer=independent,
    )
    return {"gpu-copy-0": a, "gpu-copy-1": b}


class TestClaimedAsil:
    def test_standalone(self):
        e = SystemElement("cpu", standalone_asil=Asil.B)
        assert e.claimed_asil({}) is Asil.B

    def test_independent_peers_add_ranks(self):
        elements = _gpu_elements(independent=True)
        assert elements["gpu-copy-0"].claimed_asil(elements) is Asil.D

    def test_dependent_peers_do_not_add(self):
        elements = _gpu_elements(independent=False)
        assert elements["gpu-copy-0"].claimed_asil(elements) is Asil.B

    def test_unknown_peer_rejected(self):
        e = SystemElement("x", standalone_asil=Asil.B,
                          redundant_with="ghost", independent_of_peer=True)
        with pytest.raises(ConfigurationError):
            e.claimed_asil({"x": e})


class TestCheckRequirement:
    def test_decomposed_gpu_requirement_passes_with_diversity(self, goal):
        req = SafetyRequirement(
            name="REQ-GPU-1", goal=goal,
            allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
        )
        check_requirement(req, _gpu_elements(independent=True))

    def test_decomposed_requirement_fails_without_diversity(self, goal):
        # the default GPU scheduler: redundant but NOT independent
        req = SafetyRequirement(
            name="REQ-GPU-1", goal=goal,
            allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
        )
        with pytest.raises(SafetyViolation, match="independent"):
            check_requirement(req, _gpu_elements(independent=False))

    def test_undecomposed_requires_full_asil(self, goal):
        elements = {"weak": SystemElement("weak", standalone_asil=Asil.B)}
        req = SafetyRequirement(
            name="REQ-1", goal=goal, allocated_to=("weak",)
        )
        with pytest.raises(SafetyViolation, match="claims B"):
            check_requirement(req, elements)

    def test_undecomposed_passes_with_sufficient_asil(self, goal):
        elements = {"dcls": SystemElement("dcls", standalone_asil=Asil.D)}
        req = SafetyRequirement("REQ-1", goal, allocated_to=("dcls",))
        check_requirement(req, elements)

    def test_undecomposed_element_may_exploit_redundancy(self, goal):
        elements = _gpu_elements(independent=True)
        req = SafetyRequirement("REQ-1", goal, allocated_to=("gpu-copy-0",))
        check_requirement(req, elements)

    def test_decomposition_needs_exactly_two(self, goal):
        elements = _gpu_elements()
        req = SafetyRequirement(
            "REQ-1", goal, allocated_to=("gpu-copy-0",), decomposed=True
        )
        with pytest.raises(SafetyViolation):
            check_requirement(req, elements)

    def test_unknown_element_rejected(self, goal):
        req = SafetyRequirement("REQ-1", goal, allocated_to=("ghost",))
        with pytest.raises(ConfigurationError):
            check_requirement(req, {})

    def test_empty_allocation_rejected(self, goal):
        req = SafetyRequirement("REQ-1", goal, allocated_to=())
        with pytest.raises(ConfigurationError):
            check_requirement(req, {})


class TestCheckSystem:
    def test_reports_confirmations(self, goal):
        elements = _gpu_elements()
        reqs = [
            SafetyRequirement(
                "REQ-GPU-1", goal,
                allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
            )
        ]
        confirmations = check_system(reqs, elements)
        assert len(confirmations) == 1
        assert "REQ-GPU-1" in confirmations[0]

    def test_fails_fast(self, goal):
        elements = _gpu_elements(independent=False)
        reqs = [
            SafetyRequirement(
                "REQ-GPU-1", goal,
                allocated_to=("gpu-copy-0", "gpu-copy-1"), decomposed=True,
            )
        ]
        with pytest.raises(SafetyViolation):
            check_system(reqs, elements)
