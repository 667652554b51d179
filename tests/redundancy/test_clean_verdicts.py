"""A clean redundant run's verdicts equal the full output comparison.

Without a corruption map, ``RedundantKernelManager.run`` returns each
logical kernel's clean verdict and builds no output signature, because
every copy's tokens are ``("ok", logical, tb)`` by construction.  The
oracle here is the full comparison: one :func:`build_signature` per
launch of the trace, grouped by logical kernel and compared with
:func:`compare_signatures`.  With a corruption map the run compares, and
must agree with the oracle too.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.redundancy.comparison import build_signature, compare_signatures
from repro.redundancy.manager import RedundantKernelManager

GPU = GPUConfig.gpgpusim_like()

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_POLICIES = st.sampled_from(["default", "half", "srrs", "staggered"])
_COPIES = st.sampled_from([2, 3])


@st.composite
def chains(draw):
    """Kernel chains of one to three small kernels that fit the GPU."""
    return [
        KernelDescriptor(
            name=f"clean/k{i}",
            grid_blocks=draw(st.integers(min_value=1, max_value=24)),
            threads_per_block=draw(st.sampled_from([64, 128, 256])),
            work_per_block=float(draw(st.integers(10, 5000))),
            bytes_per_block=float(draw(st.sampled_from([0, 400, 3000]))),
        )
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]


def _oracle(run, corruption=None):
    """Every launch's signature, compared per logical kernel."""
    by_logical = defaultdict(list)
    for iid in run.sim.trace.instance_ids:
        signature = build_signature(run.sim.trace, iid, corruption)
        by_logical[signature.logical_id].append(signature)
    return tuple(
        compare_signatures(sorted(group, key=lambda s: s.copy_id))
        for _, group in sorted(by_logical.items())
    )


@_SETTINGS
@given(kernels=chains(), policy=_POLICIES, copies=_COPIES)
def test_a_clean_run_gives_the_full_comparisons_verdicts(kernels, policy,
                                                          copies):
    run = RedundantKernelManager(GPU, policy, copies=copies).run(kernels)
    assert run.comparisons == _oracle(run)
    assert run.all_clean


@_SETTINGS
@given(kernels=chains(), policy=_POLICIES, copies=_COPIES, data=st.data())
def test_a_corrupted_run_compares_as_the_oracle(kernels, policy, copies,
                                                data):
    manager = RedundantKernelManager(GPU, policy, copies=copies)
    clean = manager.run(kernels)
    cells = [(iid, tb) for iid in clean.sim.trace.instance_ids
             for tb in range(kernels[iid // copies].grid_blocks)]
    # a small signature alphabet, so copies sometimes agree on an error
    corruption = data.draw(st.dictionaries(
        st.sampled_from(cells), st.sampled_from([("a",), ("b",)]),
        min_size=1, max_size=6))
    run = manager.run(kernels, corruption=corruption)
    assert run.comparisons == _oracle(run, corruption)
    assert manager.run(kernels, corruption={}).comparisons == _oracle(clean)
