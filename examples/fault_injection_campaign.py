#!/usr/bin/env python3
"""Fault-injection campaign: why diversity is the whole point.

Runs a mixed campaign (chip-wide voltage droops, permanent SM defects,
local SEUs) against redundant executions of the hotspot benchmark under
all three scheduling policies, classifies every injection, and maps the
results onto ISO 26262 hardware architectural metrics.

The output shows the paper's argument quantitatively: plain redundancy
(default scheduler) leaves silent-data-corruption holes that cap the
achievable diagnostic coverage below ASIL-D needs, while SRRS and HALF
close them completely.

Run:
    python examples/fault_injection_campaign.py
"""

from __future__ import annotations

from repro import (
    CampaignSpec,
    FaultPlanSpec,
    RunSpec,
    WorkloadSpec,
    run_campaign,
)
from repro.analysis.report import render_table

PLAN = FaultPlanSpec(transient_ccf=500, permanent_sm=120, seu=250,
                     seed=2019)

#: Raw random-hardware failure rate assumed for the GPU cores (1e-6/h is
#: a deliberately pessimistic illustration value).
RAW_RATE = 1e-6


def main() -> None:
    rows = []
    sdc_examples = {}
    for policy in ("default", "half", "srrs"):
        run = RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                      policy=policy, tag="hotspot")
        report = run_campaign(CampaignSpec(run=run, faults=PLAN))
        metrics = report.hardware_metrics(RAW_RATE)
        rows.append([
            report.policy,
            report.total,
            report.masked,
            report.detected,
            report.sdc,
            report.detection_coverage,
            f"{metrics.pmhf_per_hour:.2e}",
            "yes" if metrics.pmhf_per_hour <= 1e-8 else "NO",
        ])
        if report.sdc:
            sdc_examples[policy] = report.sdc_samples[:3]

    print(render_table(
        ["policy", "n", "masked", "detected", "SDC", "coverage",
         "PMHF (1/h)", "ASIL-D PMHF ok"],
        rows,
        title=f"Campaign: {PLAN.transient_ccf} droops + "
              f"{PLAN.permanent_sm} permanent + {PLAN.seu} SEU "
              f"(hotspot, seed {PLAN.seed})",
    ))

    for policy, examples in sdc_examples.items():
        print(f"\nexample silent corruptions under {policy!r} "
              "(identical in both copies, comparison blind):")
        for label in examples:
            print(f"  {label}")

    print(
        "\nInterpretation: the DCLS comparison detects any *differing* "
        "corruption. Under the default scheduler, redundant copies of a "
        "block can run on the same SM (permanent defects corrupt both "
        "identically) or in phase-aligned lockstep (a droop corrupts both "
        "identically) — those injections surface as SDC and inflate the "
        "PMHF beyond the ASIL-D budget. SRRS and HALF remove the shared "
        f"SM and the phase alignment, so coverage is 1.0 and the "
        f"residual rate is 0 of {RAW_RATE:.0e}/h."
    )


if __name__ == "__main__":
    main()
