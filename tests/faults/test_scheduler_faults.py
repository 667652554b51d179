"""Tests for scheduler-fault injection (paper Section IV-C, experiment E8)."""

from __future__ import annotations

import pytest

from repro.faults.scheduler_faults import (
    FaultySchedulerWrapper,
    SchedulerFault,
    SchedulerFaultKind,
    SchedulerFaultOutcome,
    audit_placement,
    classify_scheduler_fault,
)
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.scheduler import HALFScheduler, SRRSScheduler
from repro.gpu.simulator import GPUSimulator
from repro.redundancy.manager import (
    RedundantKernelManager,
    build_redundant_workload,
)


@pytest.fixture
def kernel():
    return KernelDescriptor(name="k", grid_blocks=12, threads_per_block=128,
                            work_per_block=5000.0)


def _run_with_fault(gpu, kernel, inner, fault):
    wrapper = FaultySchedulerWrapper(inner, fault)
    mgr = RedundantKernelManager(gpu, wrapper)
    return mgr.run([kernel])


class TestFaultySchedulerWrapper:
    def test_healthy_wrapper_matches_policy_placement(self, gpu, kernel):
        # a fault targeting a non-existent launch perturbs nothing
        fault = SchedulerFault(kind=SchedulerFaultKind.MISPLACE,
                               target_instance=999)
        faulty = _run_with_fault(gpu, kernel, SRRSScheduler(), fault)
        clean = RedundantKernelManager(gpu, SRRSScheduler()).run([kernel])
        faulty_sms = faulty.sim.trace.columns.sm
        clean_sms = clean.sim.trace.columns.sm
        assert faulty_sms == clean_sms

    def test_misplace_changes_placement(self, gpu, kernel):
        fault = SchedulerFault(kind=SchedulerFaultKind.MISPLACE,
                               target_instance=1)
        faulty = _run_with_fault(gpu, kernel, SRRSScheduler(), fault)
        clean = RedundantKernelManager(gpu, SRRSScheduler()).run([kernel])
        faulty_sm = faulty.sim.trace.columns.sm
        clean_sm = clean.sim.trace.columns.sm
        assert [faulty_sm[row] for row in faulty.sim.trace.rows_of(1)] != [
            clean_sm[row] for row in clean.sim.trace.rows_of(1)
        ]

    def test_wrapper_inherits_strict_fifo(self):
        fault = SchedulerFault(kind=SchedulerFaultKind.MISPLACE)
        assert FaultySchedulerWrapper(SRRSScheduler(), fault).strict_fifo
        assert not FaultySchedulerWrapper(HALFScheduler(), fault).strict_fifo

    def test_describe_mentions_fault(self):
        fault = SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=2)
        wrapper = FaultySchedulerWrapper(HALFScheduler(), fault)
        assert "pin-to-sm" in wrapper.describe()


class TestOutcomeClassification:
    def test_clean_srrs_run_is_correct_and_diverse(self, gpu, kernel):
        run = RedundantKernelManager(gpu, SRRSScheduler()).run([kernel])
        assert (
            classify_scheduler_fault(run)
            is SchedulerFaultOutcome.CORRECT_DIVERSE
        )

    def test_pin_fault_loses_diversity_class2(self, gpu, kernel):
        # pin every decision of both copies to SM 0: functionally correct
        # but redundant pairs share the SM -> the paper's class (2)
        fault = SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=0)
        run = _run_with_fault(gpu, kernel, HALFScheduler(), fault)
        assert not run.error_detected
        assert (
            classify_scheduler_fault(run)
            is SchedulerFaultOutcome.CORRECT_NOT_DIVERSE
        )

    def test_functional_error_class3_detected(self, gpu, kernel):
        # emulate lost work: one copy's output corrupted by the scheduler
        # mis-execution -> comparison flags it
        run = RedundantKernelManager(gpu, SRRSScheduler()).run(
            [kernel], corruption={(0, 0): ("lost-tb",)}
        )
        assert (
            classify_scheduler_fault(run)
            is SchedulerFaultOutcome.FUNCTIONAL_ERROR
        )


class TestPeriodicAudit:
    def test_healthy_run_has_no_deviations(self, gpu, kernel):
        launches = build_redundant_workload([kernel])
        observed = GPUSimulator(gpu, SRRSScheduler()).run(launches).trace
        deviations = audit_placement(
            observed, gpu, SRRSScheduler(), launches
        )
        assert deviations == 0

    def test_latent_pin_fault_caught_by_audit(self, gpu, kernel):
        # class-2 faults are invisible to output comparison; the periodic
        # scheduler test must expose them (Section IV-C)
        launches = build_redundant_workload([kernel])
        fault = SchedulerFault(kind=SchedulerFaultKind.PIN_TO_SM, pin_sm=0)
        wrapper = FaultySchedulerWrapper(HALFScheduler(), fault)
        observed = GPUSimulator(gpu, wrapper).run(launches).trace
        deviations = audit_placement(
            observed, gpu, HALFScheduler(), launches
        )
        assert deviations

    def test_a_misplace_fault_is_counted(self, gpu, kernel):
        launches = build_redundant_workload([kernel])
        fault = SchedulerFault(kind=SchedulerFaultKind.MISPLACE,
                               target_instance=0)
        wrapper = FaultySchedulerWrapper(SRRSScheduler(), fault)
        observed = GPUSimulator(gpu, wrapper).run(launches).trace
        deviations = audit_placement(
            observed, gpu, SRRSScheduler(), launches
        )
        assert 0 < deviations <= kernel.grid_blocks
