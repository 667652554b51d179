"""The Fig. 4 policy sweep: pinned artifacts, and no object per block.

The sweep is ``benchmarks/bench_simulator_performance.py``'s
``fig4_sweep`` scenario: the eleven Rodinia benchmarks under four
policies on 6 and 30 SMs, each with its non-redundant baseline (88
specs, 82 510 thread blocks at seed 2019).  Its artifacts are pinned by
digest, so a change to the simulator, the diversity analysis or the
output comparison that moves any number fails here.  The sweep path
reads the trace's block columns and folds the diversity aggregates in
one pass: it builds no :class:`PairDiversity`.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.api.engine import Engine
from repro.journal import payload_digest
from repro.redundancy.diversity import PairDiversity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_simulator_performance import (  # noqa: E402
    fig4_sweep_specs,
    run_fig4_sweep,
)

#: Digest of the 88 seed-2019 artifacts (without the version stamp).
FIG4_SWEEP_DIGEST = "6cf38318154ebb44"


def test_the_seed_2019_sweep_artifacts_are_pinned():
    artifacts = Engine().run_many(fig4_sweep_specs(seed=2019), workers=1)
    payload = [{k: v for k, v in a.to_dict().items() if k != "version"}
               for a in artifacts]
    assert len(payload) == 88
    assert payload_digest({"artifacts": payload}) == FIG4_SWEEP_DIGEST


def test_the_sweep_builds_no_pair_objects(monkeypatch):
    built = [0]
    init = PairDiversity.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairDiversity, "__init__", counting)
    # the counter sees a pair built the usual way
    PairDiversity(0, 0, 0, 1, False, 1.0, None)
    assert built == [1]
    built[0] = 0

    counts = run_fig4_sweep(fig4_sweep_specs(seed=2019))

    assert built == [0]
    assert counts["blocks"] == 82_510
    assert counts["simulate_calls"] == 88 + counts["distinct_baselines"]


def test_pairs_stay_frozen():
    pair = PairDiversity(0, 0, 0, 1, False, 1.0, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.time_slack = 0.0
