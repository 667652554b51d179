"""Property-based tests (hypothesis) on the core invariants.

These encode the reproduction's load-bearing guarantees:

* the simulator conserves work (every block executes exactly once, no SM
  over-commits, traces validate) for arbitrary valid kernels;
* SRRS yields spatial + temporal diversity for *any* kernel;
* HALF yields spatial diversity + phase separation for *any* kernel;
* comparison detects any single-copy corruption and any differing
  corruption; it misses exactly the identical-corruption case;
* ASIL decomposition arithmetic is closed and sound.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.scheduler import DefaultScheduler, HALFScheduler, SRRSScheduler
from repro.gpu.simulator import simulate
from repro.iso26262.asil import Asil
from repro.iso26262.decomposition import check_decomposition, valid_decompositions
from repro.redundancy.comparison import OutputSignature, compare_signatures
from repro.redundancy.manager import RedundantKernelManager

GPU = GPUConfig.gpgpusim_like()

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def kernels(draw) -> KernelDescriptor:
    """Random kernels guaranteed to fit the 6-SM GPU."""
    tpb = draw(st.sampled_from([32, 64, 128, 192, 256, 384, 512]))
    max_regs = max(1, GPU.sm.registers // tpb)
    regs = draw(st.integers(min_value=1, max_value=min(48, max_regs)))
    smem = draw(st.sampled_from([0, 0, 4096, 8192]))
    return KernelDescriptor(
        name="prop/k",
        grid_blocks=draw(st.integers(min_value=1, max_value=48)),
        threads_per_block=tpb,
        regs_per_thread=regs,
        shared_mem_per_block=smem,
        work_per_block=float(draw(st.integers(min_value=10, max_value=20000))),
        bytes_per_block=float(draw(st.sampled_from([0, 400, 3000, 9000]))),
    )


class TestSimulatorInvariants:
    @_SETTINGS
    @given(kernel=kernels())
    def test_every_block_executes_exactly_once(self, kernel):
        sim = simulate(GPU, DefaultScheduler(), [
            KernelLaunch(kernel=kernel, instance_id=0)
        ])
        rows = sim.trace.rows_of(0)
        tb_index = sim.trace.columns.tb_index
        assert len(rows) == kernel.grid_blocks
        assert (sorted(tb_index[row] for row in rows)
                == list(range(kernel.grid_blocks)))

    @_SETTINGS
    @given(kernel=kernels())
    def test_trace_validates(self, kernel):
        sim = simulate(GPU, DefaultScheduler(), [
            KernelLaunch(kernel=kernel, instance_id=0),
            KernelLaunch(kernel=kernel, instance_id=1, copy_id=1),
        ])
        sim.trace.validate()

    @_SETTINGS
    @given(kernel=kernels())
    def test_makespan_at_least_analytic_lower_bound(self, kernel):
        sim = simulate(GPU, DefaultScheduler(), [
            KernelLaunch(kernel=kernel, instance_id=0)
        ])
        bound = kernel.ideal_cycles(
            GPU.num_sms,
            issue_throughput=GPU.sm.issue_throughput,
            dram_bandwidth=GPU.dram_bandwidth,
        )
        assert sim.makespan >= bound - 1e-6

    @_SETTINGS
    @given(kernel=kernels())
    def test_block_slots_never_exceeded(self, kernel):
        sim = simulate(GPU, DefaultScheduler(), [
            KernelLaunch(kernel=kernel, instance_id=0)
        ])
        limit = blocks_per_sm(kernel, GPU.sm)
        cols = sim.trace.columns
        blocks = list(zip(cols.sm, cols.start, cols.end))
        for sm, start, end in blocks:
            mid = (start + end) / 2
            resident = [b for b in blocks if b[0] == sm and b[1] <= mid < b[2]]
            assert len(resident) <= limit


class TestPolicyGuaranteeProperties:
    @_SETTINGS
    @given(kernel=kernels())
    def test_srrs_diverse_for_any_kernel(self, kernel):
        run = RedundantKernelManager(GPU, SRRSScheduler()).run([kernel])
        assert run.diversity.spatially_diverse
        assert run.diversity.temporally_diverse

    @_SETTINGS
    @given(kernel=kernels())
    def test_half_spatially_diverse_with_phase_separation(self, kernel):
        run = RedundantKernelManager(GPU, HALFScheduler()).run([kernel])
        assert run.diversity.spatially_diverse
        assert run.diversity.phase_aligned_pairs == 0
        assert run.diversity.fully_diverse

    @_SETTINGS
    @given(kernel=kernels(), offset=st.integers(min_value=1, max_value=5))
    def test_srrs_rotation_offset_always_separates_sms(self, kernel, offset):
        run = RedundantKernelManager(GPU, SRRSScheduler(start_offset=offset)).run(
            [kernel]
        )
        assert run.diversity.spatially_diverse


def _tokens(n, corrupt=None):
    base = [("ok", 0, i) for i in range(n)]
    if corrupt:
        for i, sig in corrupt.items():
            base[i] = ("err",) + sig
    return tuple(base)


class TestComparisonProperties:
    @_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=32),
        victim=st.integers(min_value=0, max_value=31),
    )
    def test_single_copy_corruption_always_detected(self, n, victim):
        victim %= n
        a = OutputSignature(0, 0, 0, _tokens(n, {victim: ("x",)}))
        b = OutputSignature(1, 0, 1, _tokens(n))
        result = compare_signatures([a, b])
        assert result.error_detected
        assert victim in result.mismatching_blocks

    @_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=32),
        victim=st.integers(min_value=0, max_value=31),
    )
    def test_identical_corruption_always_silent(self, n, victim):
        victim %= n
        a = OutputSignature(0, 0, 0, _tokens(n, {victim: ("x",)}))
        b = OutputSignature(1, 0, 1, _tokens(n, {victim: ("x",)}))
        result = compare_signatures([a, b])
        assert not result.error_detected
        assert result.silent_corruption

    @_SETTINGS
    @given(n=st.integers(min_value=1, max_value=32))
    def test_clean_copies_always_agree(self, n):
        a = OutputSignature(0, 0, 0, _tokens(n))
        b = OutputSignature(1, 0, 1, _tokens(n))
        assert compare_signatures([a, b]).all_clean


class TestDecompositionProperties:
    @_SETTINGS
    @given(target=st.sampled_from([Asil.A, Asil.B, Asil.C, Asil.D]))
    def test_all_sanctioned_splits_validate(self, target):
        for rule in valid_decompositions(target):
            check_decomposition(target, list(rule.parts), independent=True)

    @_SETTINGS
    @given(
        target=st.sampled_from([Asil.A, Asil.B, Asil.C, Asil.D]),
        a=st.sampled_from(list(Asil)),
        b=st.sampled_from(list(Asil)),
    )
    def test_check_agrees_with_rank_arithmetic(self, target, a, b):
        sanctioned = {r.parts for r in valid_decompositions(target)}
        proposal = tuple(sorted((a, b), reverse=True))
        try:
            check_decomposition(target, [a, b], independent=True)
            assert proposal in sanctioned
        except Exception:
            assert proposal not in sanctioned
