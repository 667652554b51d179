"""Differential tests: indexed fault classification vs. a full scan.

:meth:`FaultCampaign.classify` tests only the rows the trace's per-SM
start windows return and compares only the corrupted output cells.
The oracle here does neither: it runs ``effect_on`` over every row
(``range(num_blocks)``) and classifies through full-grid ``build_signature`` /
``compare_signatures`` / ``classify_outcome``.  Both must agree exactly
on random traces under every policy, at two and three copies, for
chip-wide and SM-subset CCFs, permanent faults and SEUs, including
instants that fall exactly on block starts and ends.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.faults.campaign import FaultCampaign
from repro.faults.injector import apply_fault
from repro.faults.outcomes import FaultOutcome, InjectionResult, classify_outcome
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.trace import ExecutionTrace
from repro.redundancy.comparison import build_signature, compare_signatures
from repro.redundancy.manager import RedundantKernelManager

POLICIES = ("default", "half", "srrs", "staggered")
SEEDS = range(8)


class WideCCF(TransientCCF):
    """A descriptor type the injector does not know: must scan every row.

    It also reaches blocks that finished before the instant, which no
    stabbing window holds.
    """

    def effect_on(self, cols, row):
        if cols.end[row] <= self.time:
            return ("late", self.fault_id, cols.tb_index[row])
        return super().effect_on(cols, row)


# ----------------------------------------------------------------------
# the scan oracle
# ----------------------------------------------------------------------
def scan_apply(fault: FaultDescriptor, trace: ExecutionTrace) -> dict:
    cols = trace.columns
    corruption = {}
    for row in range(trace.num_blocks):
        signature = fault.effect_on(cols, row)
        if signature is not None:
            corruption[(cols.instance_id[row], cols.tb_index[row])] = signature
    if isinstance(fault, SEUFault) and len(corruption) > 1:
        victim = min(corruption)
        corruption = {victim: corruption[victim]}
    return corruption


def scan_classify(fault: FaultDescriptor,
                  trace: ExecutionTrace) -> InjectionResult:
    corruption = scan_apply(fault, trace)
    logicals = sorted({trace.span(iid).logical_id for iid, _ in corruption})
    comparisons = []
    for logical in logicals:
        copies = trace.copies_of(logical)
        signatures = [build_signature(trace, copies[c].instance_id, corruption)
                      for c in sorted(copies)]
        comparisons.append(compare_signatures(signatures))
    return InjectionResult(classify_outcome(corruption, comparisons))


def scan_active(trace: ExecutionTrace, t: float, sms=None) -> List[int]:
    cols = trace.columns
    return [row for row in range(trace.num_blocks)
            if cols.start[row] <= t < cols.end[row]
            and (sms is None or cols.sm[row] in set(sms))]


def window_active(trace: ExecutionTrace, t: float, sms=None) -> List[int]:
    """The per-SM window's rows, filtered exactly, in row order."""
    cols = trace.columns
    return sorted(row for row in trace.window_rows(t, sms)
                  if cols.start[row] <= t < cols.end[row])


# ----------------------------------------------------------------------
# random redundant runs and fault populations
# ----------------------------------------------------------------------
def random_run(seed: int, policy: str, copies: int):
    rng = random.Random(f"classify-equivalence:{seed}:{policy}:{copies}")
    gpu = GPUConfig(
        name="equiv",
        num_sms=rng.randint(3, 8),
        sm=SMConfig(max_threads=1024, max_blocks=rng.randint(2, 6),
                    registers=32768, shared_memory=32768),
        dispatch_latency=rng.choice((0.0, 100.0, 3000.0)),
        allow_kernel_mixing=rng.random() < 0.7,
    )
    kernels = [
        KernelDescriptor(
            name=f"equiv/k{i}",
            grid_blocks=rng.randint(1, 16),
            threads_per_block=rng.choice((64, 128, 256)),
            work_per_block=rng.choice((0.3, 37.5, 400.0, 1500.0, 5000.0)),
            bytes_per_block=rng.choice((0.0, 64.0, 2048.0)),
        )
        for i in range(rng.randint(1, 4))
    ]
    run = RedundantKernelManager(gpu, policy, copies=copies).run(kernels)
    return rng, run


def fault_population(rng: random.Random,
                     trace: ExecutionTrace) -> List[FaultDescriptor]:
    cols = trace.columns
    rows = range(trace.num_blocks)
    num_sms = trace.num_sms
    makespan = trace.makespan
    work = max(cols.end[row] - cols.start[row] for row in rows)
    # random instants plus every boundary case: exactly a block's start
    # or end, and just before/after them
    times = [rng.uniform(0.0, makespan) for _ in range(12)]
    for row in rng.sample(rows, min(8, len(rows))):
        start, end = cols.start[row], cols.end[row]
        times += [start, end, max(0.0, end - 1e-9), start + 1e-9]
    times.append(0.0)
    faults: List[FaultDescriptor] = []
    fid = 0
    for t in times:
        # a coarse quantum aligns copies (SDC), a fine one separates them
        quantum = rng.choice((1.0, 50.0, 1e9))
        subset = tuple(rng.choice(range(num_sms))
                       for _ in range(rng.randint(1, 3)))
        faults += [
            TransientCCF(time=t, fault_id=fid, work_per_block=work,
                         phase_quantum=quantum),
            TransientCCF(time=t, fault_id=fid + 1, sms=subset,
                         work_per_block=work, phase_quantum=quantum),
            SEUFault(sm=rng.randrange(num_sms), time=t, fault_id=fid + 2),
            PermanentSMFault(sm=rng.randrange(num_sms), fault_id=fid + 3,
                             since=t),
        ]
        fid += 4
    for row in rng.sample(rows, min(4, len(rows))):
        sm, start = cols.sm[row], cols.start[row]
        faults += [
            PermanentSMFault(sm=sm, fault_id=fid, since=cols.end[row]),
            PermanentSMFault(sm=sm, fault_id=fid + 1, since=start),
            SEUFault(sm=sm, time=start, fault_id=fid + 2),
            WideCCF(time=start, fault_id=fid + 3,
                    work_per_block=work, phase_quantum=1e9),
        ]
        fid += 4
    return faults


@pytest.mark.parametrize("copies", (2, 3))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_classify_matches_scan_oracle(seed, policy, copies):
    rng, run = random_run(seed, policy, copies)
    trace = run.sim.trace
    campaign = FaultCampaign(run)
    for fault in fault_population(rng, trace):
        assert apply_fault(fault, trace) == scan_apply(fault, trace), fault
        assert campaign.classify(fault) == scan_classify(fault, trace), fault


def test_population_reaches_every_outcome():
    # the sweep above is only a proof if it exercised all three outcomes
    seen = set()
    for seed in SEEDS:
        for copies in (2, 3):
            rng, run = random_run(seed, "default", copies)
            campaign = FaultCampaign(run)
            for fault in fault_population(rng, run.sim.trace):
                seen.add(campaign.classify(fault).outcome)
    assert seen == set(FaultOutcome)


@pytest.mark.parametrize("seed", SEEDS)
def test_window_rows_match_scan(seed):
    rng, run = random_run(seed, POLICIES[seed % len(POLICIES)], 2)
    trace = run.sim.trace
    cols = trace.columns
    times = [rng.uniform(0.0, trace.makespan) for _ in range(20)]
    times += cols.start[:10]
    times += cols.end[:10]
    for t in times:
        assert window_active(trace, t) == scan_active(trace, t)
        sms = [rng.randrange(trace.num_sms) for _ in range(2)]
        assert window_active(trace, t, sms) == scan_active(trace, t, sms)


def test_windows_are_rebuilt_after_add_block():
    trace = ExecutionTrace(num_sms=2)
    trace.add_block(0, 0, 0, 0, sm=0, start=0.0, end=10.0)
    assert window_active(trace, 5.0) == [0]
    assert trace.rows_on_sm(1) == []
    trace.add_block(0, 0, 0, 1, sm=1, start=4.0, end=100.0)
    assert window_active(trace, 5.0) == [0, 1]
    assert window_active(trace, 50.0) == [1]
    assert trace.rows_on_sm(1) == [1]
