"""Tests for output signatures and DCLS comparison."""

from __future__ import annotations

import pytest

from repro.errors import RedundancyError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.scheduler.default import DefaultScheduler
from repro.gpu.simulator import simulate
from repro.redundancy.comparison import (
    OutputSignature,
    build_signature,
    compare_signatures,
    majority_vote,
)


def _sig(copy_id, tokens, logical=0, instance=None):
    return OutputSignature(
        instance_id=instance if instance is not None else copy_id,
        logical_id=logical,
        copy_id=copy_id,
        tokens=tuple(tokens),
    )


OK0 = ("ok", 0, 0)
OK1 = ("ok", 0, 1)
ERR_A = ("err", "a")
ERR_B = ("err", "b")


class TestBuildSignature:
    @pytest.fixture
    def trace(self, gpu):
        kd = KernelDescriptor(name="k", grid_blocks=4, threads_per_block=64,
                              work_per_block=100.0)
        sim = simulate(gpu, DefaultScheduler(), [
            KernelLaunch(kernel=kd, instance_id=0, copy_id=0, logical_id=7),
        ])
        return sim.trace

    def test_clean_tokens(self, trace):
        sig = build_signature(trace, 0)
        assert len(sig.tokens) == 4
        assert all(t[0] == "ok" for t in sig.tokens)
        assert sig.logical_id == 7

    def test_tokens_encode_block_identity(self, trace):
        sig = build_signature(trace, 0)
        assert len(set(sig.tokens)) == 4

    def test_corruption_applied(self, trace):
        sig = build_signature(trace, 0, corruption={(0, 2): ("boom",)})
        assert sig.tokens[2] == ("err", "boom")
        assert [tok[0] for tok in sig.tokens] == ["ok", "ok", "err", "ok"]

    def test_corruption_for_other_instance_ignored(self, trace):
        sig = build_signature(trace, 0, corruption={(9, 2): ("boom",)})
        assert sig == build_signature(trace, 0)
        assert all(tok[0] == "ok" for tok in sig.tokens)


class TestCompareSignatures:
    def test_clean_copies_agree(self):
        result = compare_signatures([_sig(0, [OK0, OK1]), _sig(1, [OK0, OK1])])
        assert result.all_clean
        assert not result.error_detected
        assert not result.silent_corruption

    def test_single_corruption_detected(self):
        result = compare_signatures([_sig(0, [OK0, ERR_A]), _sig(1, [OK0, OK1])])
        assert result.error_detected
        assert result.mismatching_blocks == (1,)

    def test_differing_corruptions_detected(self):
        result = compare_signatures([_sig(0, [ERR_A]), _sig(1, [ERR_B])])
        assert result.error_detected

    def test_identical_corruption_is_silent(self):
        # the common-cause-fault case the paper's policies must exclude
        result = compare_signatures([_sig(0, [ERR_A]), _sig(1, [ERR_A])])
        assert not result.error_detected
        assert result.silent_corruption
        assert result.agreeing_corrupt_blocks == (0,)

    def test_three_copies_supported(self):
        result = compare_signatures([
            _sig(0, [OK0]), _sig(1, [OK0]), _sig(2, [ERR_A]),
        ])
        assert result.error_detected
        assert result.copies == (0, 1, 2)

    def test_requires_two_copies(self):
        with pytest.raises(RedundancyError):
            compare_signatures([_sig(0, [OK0])])

    def test_mixed_logical_ids_rejected(self):
        with pytest.raises(RedundancyError):
            compare_signatures([
                _sig(0, [OK0], logical=0), _sig(1, [OK0], logical=1),
            ])

    def test_duplicate_copy_ids_rejected(self):
        with pytest.raises(RedundancyError):
            compare_signatures([_sig(0, [OK0]), _sig(0, [OK0], instance=5)])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(RedundancyError):
            compare_signatures([_sig(0, [OK0]), _sig(1, [OK0, OK1])])


class TestMajorityVote:
    def test_majority_corrects_single_error(self):
        voted, unresolved = majority_vote([
            _sig(0, [OK0, OK1]), _sig(1, [OK0, ERR_A]), _sig(2, [OK0, OK1]),
        ])
        assert voted == (OK0, OK1)
        assert unresolved == ()

    def test_no_majority_reported(self):
        voted, unresolved = majority_vote([
            _sig(0, [ERR_A]), _sig(1, [ERR_B]), _sig(2, [OK0]),
        ])
        assert unresolved == (0,)

    def test_unanimous_wrong_majority_wins(self):
        # TMR cannot fix a three-way identical corruption — that is why
        # diversity matters for TMR too
        voted, unresolved = majority_vote([
            _sig(0, [ERR_A]), _sig(1, [ERR_A]), _sig(2, [ERR_A]),
        ])
        assert voted == (ERR_A,)
        assert unresolved == ()

    def test_requires_three_copies(self):
        with pytest.raises(RedundancyError):
            majority_vote([_sig(0, [OK0]), _sig(1, [OK0])])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(RedundancyError):
            majority_vote([
                _sig(0, [OK0]), _sig(1, [OK0]), _sig(2, [OK0, OK1]),
            ])
