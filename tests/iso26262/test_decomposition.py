"""Tests for ASIL decomposition rules (paper Figure 1)."""

from __future__ import annotations

import pytest

from repro.errors import SafetyViolation
from repro.iso26262.asil import Asil
from repro.iso26262.decomposition import (
    FIGURE1_EXAMPLES,
    check_decomposition,
    valid_decompositions,
)


class TestValidDecompositions:
    def test_qm_has_none(self):
        assert valid_decompositions(Asil.QM) == ()

    def test_d_includes_paper_rules(self):
        splits = {r.parts for r in valid_decompositions(Asil.D)}
        assert (Asil.B, Asil.B) in splits        # DCLS rule
        assert (Asil.C, Asil.A) in splits
        assert (Asil.D, Asil.QM) in splits       # monitor/actuator

    def test_c_includes_a_plus_b(self):
        splits = {r.parts for r in valid_decompositions(Asil.C)}
        assert (Asil.B, Asil.A) in splits

    def test_rank_arithmetic_holds_for_safety_splits(self):
        for target in (Asil.A, Asil.B, Asil.C, Asil.D):
            for rule in valid_decompositions(target):
                hi, lo = rule.parts
                if lo is Asil.QM:
                    assert hi is target
                else:
                    assert hi.rank + lo.rank == target.rank

    @pytest.mark.parametrize("target, splits", [
        (Asil.A, ["A = A(A) + QM(A)"]),
        (Asil.B, ["B = B(B) + QM(B)", "B = A(B) + A(B)"]),
        (Asil.C, ["C = C(C) + QM(C)", "C = B(C) + A(C)"]),
        (Asil.D, ["D = D(D) + QM(D)", "D = C(D) + A(D)", "D = B(D) + B(D)"]),
    ], ids=["A", "B", "C", "D"])
    def test_sanctioned_splits_of_each_level(self, target, splits):
        # the complete ISO 26262-9 table, in the order it is enumerated
        assert [r.describe() for r in valid_decompositions(target)] == splits

    def test_describe_format(self):
        rule = check_decomposition(Asil.D, [Asil.B, Asil.B], independent=True)
        assert rule.describe() == "D = B(D) + B(D)"
        assert rule.tags == ("B(D)", "B(D)")


class TestCheckDecomposition:
    def test_paper_examples_validate(self):
        # FIGURE1_EXAMPLES is built by check_decomposition at import time;
        # reaching here means they validated.  Assert the shapes anyway.
        assert len(FIGURE1_EXAMPLES) == 3
        names = [name for name, _rule in FIGURE1_EXAMPLES]
        assert any("DCLS" in n for n in names)

    def test_figure1_rules(self):
        assert [rule.describe() for _name, rule in FIGURE1_EXAMPLES] == [
            "C = B(C) + A(C)", "D = B(D) + B(D)", "D = D(D) + QM(D)",
        ]

    def test_a_decomposed_part_decomposes_again(self):
        # D = B(D) + B(D), and each B part may split once more into
        # A + A; an A part has no split left but the QM one
        check_decomposition(Asil.D, [Asil.B, Asil.B], independent=True)
        check_decomposition(Asil.B, [Asil.A, Asil.A], independent=True)
        with pytest.raises(SafetyViolation):
            check_decomposition(Asil.A, [Asil.QM, Asil.QM], independent=True)

    def test_order_insensitive(self):
        rule_ab = check_decomposition(Asil.C, [Asil.A, Asil.B], independent=True)
        rule_ba = check_decomposition(Asil.C, [Asil.B, Asil.A], independent=True)
        assert rule_ab.parts == rule_ba.parts

    def test_insufficient_ranks_rejected(self):
        with pytest.raises(SafetyViolation):
            check_decomposition(Asil.D, [Asil.A, Asil.B], independent=True)

    def test_excessive_ranks_rejected(self):
        with pytest.raises(SafetyViolation):
            check_decomposition(Asil.B, [Asil.B, Asil.B], independent=True)

    def test_dependence_voids_decomposition(self):
        # the central precondition: no independence, no credit — this is
        # why GPUs need diverse redundancy at all
        with pytest.raises(SafetyViolation, match="independent"):
            check_decomposition(Asil.D, [Asil.B, Asil.B], independent=False)

    def test_pairwise_only(self):
        with pytest.raises(SafetyViolation):
            check_decomposition(Asil.D, [Asil.B, Asil.A, Asil.A],
                                independent=True)
