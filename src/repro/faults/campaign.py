"""Fault-injection campaigns over redundant executions.

A campaign takes one *clean* redundant run (trace + comparisons are
deterministic), draws fault ``i`` of an indexed population
(:meth:`FaultCampaign.fault_at`), applies it to the trace, re-derives the
affected output comparisons and classifies the outcome.  Because faults
do not perturb timing in this coarse model, a single simulation per
scheduling policy supports the whole campaign — thousands of injections
cost milliseconds.

This is experiment E5 (``python -m repro coverage``, run through
:mod:`repro.campaigns`): the paper *claims* SRRS and HALF
achieve diverse redundancy by construction; the campaign measures the
silent-corruption rate of each policy under transient CCFs (voltage
droops), permanent SM defects and local SEUs.  Expected result: the
default scheduler exhibits SDC (redundant copies corrupted identically),
SRRS and HALF do not.
"""

from __future__ import annotations

import operator
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.faults.injector import apply_fault
from repro.faults.outcomes import FaultOutcome, InjectionResult
from repro.faults.report import (
    SDC_SAMPLE_LIMIT,
    CampaignReport,
    kind_at,
    sampling_metadata,
)
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.substreams import substream, substream_seed

if TYPE_CHECKING:
    from repro.api.spec import FaultPlanSpec
    from repro.api.stats import SamplingSpec
    from repro.redundancy.manager import RedundantRunResult

__all__ = [
    "CampaignReport",
    "FaultCampaign",
    "SDC_SAMPLE_LIMIT",
    "fault_substream",
    "sampling_metadata",
]


def fault_substream(seed: int, index: int) -> random.Random:
    """PRNG substream of fault ``index`` within a campaign's seed schedule.

    The campaign's randomness is an *indexed* stream: fault ``index`` draws
    from a PRNG seeded with ``SHA-256(seed, index)``
    (:mod:`repro.substreams`), so any contiguous shard of the index space
    can regenerate exactly its own faults without consuming (or even
    knowing about) the draws of other shards.  This is what makes the
    sharded campaign population independent of the shard count — see
    ``docs/CAMPAIGNS.md``.
    """
    return substream(f"{seed}:", index)


class FaultCampaign:
    """Runs fault-injection campaigns against a redundant execution.

    Args:
        run: the clean redundant run to attack (one per policy).
    """

    def __init__(self, run: RedundantRunResult) -> None:
        if run.error_detected or run.silent_corruption:
            raise FaultInjectionError(
                "campaign baseline must be a clean (fault-free) run"
            )
        self._run = run
        self._trace = run.sim.trace
        self._logical_of: Dict[int, int] = {
            span.instance_id: span.logical_id for span in self._trace.spans
        }
        # compared instance -> its logical id; logical id -> copy count
        self._compared: Dict[int, int] = {}
        self._copies: Dict[int, int] = {}
        for logical in self._trace.logical_ids():
            copies = self._trace.copies_of(logical)
            self._copies[logical] = len(copies)
            for span in copies.values():
                self._compared[span.instance_id] = logical
        # sampling-domain parameters, shared by the indexed sampler and
        # the stream overlay
        self._makespan = self._trace.makespan
        self._num_sms = self._trace.num_sms
        cols = self._trace.columns
        self._work_hint = max(map(operator.sub, cols.end, cols.start),
                              default=1000.0)
        # the indexed sampler's one generator, re-seeded per fault index
        self._substream = random.Random(0)

    @property
    def policy(self) -> str:
        """Scheduler label of the underlying clean run."""
        return self._run.sim.scheduler_name

    # ------------------------------------------------------------------
    def classify(self, fault: FaultDescriptor) -> InjectionResult:
        """Inject one fault and classify its outcome.

        Only the corrupted output cells are compared: every other cell
        carries the fault-free token in all copies, which the clean
        baseline already compared equal.  A cell ``(logical, tb)`` is a
        detected mismatch when some copy of it is uncorrupted or two
        copies carry different corruption signatures; the injection is
        DETECTED when any cell mismatches, otherwise SDC (every corrupted
        cell agrees across all copies), or MASKED when nothing was
        corrupted: the outcome ``classify_outcome`` gives over full-grid
        signature comparisons (``tests/faults/test_classify_equivalence.py``).
        """
        corruption = apply_fault(fault, self._trace)
        if not corruption:
            outcome = FaultOutcome.MASKED
        else:
            compared = self._compared
            cells: Dict[Tuple[int, int], List[Tuple]] = {}
            for (iid, tb), signature in corruption.items():
                logical = compared.get(iid)
                if logical is not None:
                    cells.setdefault((logical, tb), []).append(signature)
            outcome = FaultOutcome.SDC
            for (logical, _tb), signatures in cells.items():
                first = signatures[0]
                if (len(signatures) < self._copies[logical]
                        or any(s != first for s in signatures)):
                    outcome = FaultOutcome.DETECTED
                    break
        logical_of = self._logical_of
        return InjectionResult(
            fault_label=fault.describe(),
            outcome=outcome,
            corrupted_blocks=len(corruption),
            affected_logicals=tuple(sorted(
                {logical_of[iid] for (iid, _tb) in corruption}
            )),
        )

    # ------------------------------------------------------------------
    def _build_fault(self, kind: str, rng: random.Random, fault_id: int,
                     phase_quantum: float) -> FaultDescriptor:
        """Construct one fault of ``kind`` over this campaign's domain.

        The single source of truth for fault parameterisation: both
        samplers (indexed and stream-overlay) draw through this builder,
        so the per-kind draw order — and therefore every population's
        bit-stability — can never diverge between them.
        ``kind`` is ``"ccf"``, ``"perm"`` or ``"seu"``.
        """
        if kind == "ccf":
            return TransientCCF(
                time=rng.uniform(0.0, self._makespan),
                fault_id=fault_id,
                sms=None,
                work_per_block=self._work_hint,
                phase_quantum=phase_quantum,
            )
        if kind == "perm":
            return PermanentSMFault(
                sm=rng.randrange(self._num_sms),
                fault_id=fault_id,
                since=rng.uniform(0.0, self._makespan * 0.5),
            )
        return SEUFault(
            sm=rng.randrange(self._num_sms),
            time=rng.uniform(0.0, self._makespan),
            fault_id=fault_id,
        )

    # ------------------------------------------------------------------
    # indexed (shardable) sampling
    # ------------------------------------------------------------------
    def fault_at(self, plan: FaultPlanSpec, index: int, *,
                 sampling: Optional[SamplingSpec] = None
                 ) -> FaultDescriptor:
        """The ``index``-th fault of the campaign's indexed population.

        Fault ``index`` draws exclusively from its own PRNG substream
        (:func:`fault_substream` of ``plan.seed``), so the fault returned
        for a given ``(plan, index)`` never depends on which other
        indices have been (or will be) sampled — the determinism
        contract sharded campaigns are built on.  The kind layout
        (:func:`~repro.faults.report.kind_at`) depends on the sampling
        generation:

        * legacy (``sampling=None``, v1): the index space is segmented
          by kind — ``[0, transient_ccf)`` transient CCFs, the next
          ``permanent_sm`` permanent SM defects, the remainder SEUs.
          Bit-stable, but bounded by ``plan.total_injections``.
        * v2 (a :class:`~repro.api.stats.SamplingSpec`): the kind of
          index ``i`` comes from the stratified block layout or the
          importance proposal draw.  Both are *prefix-stable* — valid
          for every ``i >= 0`` regardless of campaign size — which is
          what lets the repeat-until-confidence runner extend a
          campaign in place.

        Raises:
            FaultInjectionError: when ``index`` is negative or outside
                the legacy population.
        """
        weights = plan if sampling is None else sampling
        total = (weights.transient_ccf + weights.permanent_sm
                 + weights.seu)
        if index < 0 or (sampling is None and index >= total):
            upper = total if sampling is None else "inf"
            raise FaultInjectionError(
                f"fault index {index} outside campaign population "
                f"[0, {upper})"
            )
        rng = self._fault_substream(plan.seed, index)
        if sampling is None:
            position = index
        elif sampling.method == "stratified":
            position = index % total
        else:
            position = rng.randrange(total)
        kind = kind_at(position, weights.transient_ccf,
                       weights.permanent_sm, weights.seu)
        return self._build_fault(kind, rng, index, plan.phase_quantum)

    def _fault_substream(self, seed: int, index: int) -> random.Random:
        """:func:`fault_substream` on the campaign's shared generator.

        Draw-for-draw identical to a fresh substream, but re-seeds one
        generator instead of allocating one per index; each fault is
        built before the next index re-seeds it.
        """
        rng = self._substream
        rng.seed(substream_seed(f"{seed}:", index))
        return rng

    def random_fault(self, rng: random.Random, *, transient_ccf: int = 1,
                     permanent_sm: int = 1, seu: int = 1,
                     phase_quantum: float = 1.0,
                     fault_id: int = 0) -> FaultDescriptor:
        """Draw one fault from an externally supplied PRNG.

        This is the *overlay* hook used by :mod:`repro.streams`: callers
        that manage their own substream schedule (e.g. one substream per
        frame of a stream) draw faults over this campaign's sampling
        domain — same kind pick and parameter distributions as the
        importance-sampled :meth:`fault_at`, but with the caller's
        ``rng`` and ``fault_id``.

        Args:
            rng: the PRNG to consume (the caller owns its seeding).
            transient_ccf: relative weight of transient CCFs.
            permanent_sm: relative weight of permanent SM defects.
            seu: relative weight of SEUs.
            phase_quantum: transient-CCF alignment quantum (work units).
            fault_id: identifier stamped into the fault (labels stay
                unique when the caller passes unique ids).

        The weights are the caller's validated spec values
        (:class:`~repro.api.stream.StreamFaultSpec` checks them).
        """
        pick = rng.randrange(transient_ccf + permanent_sm + seu)
        kind = kind_at(pick, transient_ccf, permanent_sm, seu)
        return self._build_fault(kind, rng, fault_id, phase_quantum)

    def sample_range(self, plan: FaultPlanSpec, start: int, stop: int, *,
                     sampling: Optional[SamplingSpec] = None
                     ) -> List[FaultDescriptor]:
        """One contiguous shard ``[start, stop)`` of the indexed population.

        ``sample_range(p, 0, p.total_injections)`` is the whole (legacy)
        population; any partition of ``[0, total)`` into contiguous
        ranges regenerates exactly the same faults shard by shard.  With
        a v2 ``sampling`` design the population is prefix-stable and
        unbounded, so only ``0 <= start <= stop`` is required.

        Raises:
            FaultInjectionError: on an invalid or out-of-bounds range.
        """
        upper = None if sampling is not None else plan.total_injections
        if start < 0 or start > stop or (upper is not None and stop > upper):
            raise FaultInjectionError(
                f"invalid fault range [{start}, {stop}) for a campaign of "
                f"{plan.total_injections} injections"
            )
        return [self.fault_at(plan, index, sampling=sampling)
                for index in range(start, stop)]
