"""Sharded, resumable fault-injection campaign orchestration.

The :mod:`repro.faults` layer can classify one injection at a time; this
package scales that primitive to ROADMAP-size campaigns (millions of
injections) without giving up determinism:

* :mod:`repro.campaigns.sharding` — deterministic partition of the
  campaign's fault-index space into contiguous shards;
* :mod:`repro.campaigns.store` — the JSONL shard-artifact store with
  digest-verified checkpoint/resume;
* :mod:`repro.campaigns.fold` — the read side: shard plan, validated
  records, status and the streaming fold into one aggregate
  :class:`~repro.faults.report.CampaignReport`;
* :mod:`repro.campaigns.runner` — process-pool shard execution.

Quickstart::

    from repro.api import CampaignSpec, FaultPlanSpec, RunSpec, WorkloadSpec
    from repro.campaigns import run_campaign

    spec = CampaignSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                    policy="srrs"),
        faults=FaultPlanSpec(transient_ccf=60_000, permanent_sm=20_000,
                             seu=20_000, seed=7),
        shards=32,
    )
    report = run_campaign(spec, store="out/hotspot-srrs", workers=4)
    assert report.sdc == 0

Interrupt it, run the same call again: finished shards are skipped and
the aggregate report is bit-identical to an uninterrupted run.  The same
operations are available from the shell via ``python -m repro campaign
run|resume|status|report``; the determinism contract is documented in
``docs/CAMPAIGNS.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaigns.fold": (
        "CampaignStatus", "campaign_plan", "campaign_status", "fold_report",
        "spec_sampling_meta", "validated_records",
    ),
    "repro.campaigns.runner": (
        "baseline_campaign", "repeat_campaign", "resume_campaign",
        "run_campaign",
    ),
    "repro.campaigns.sharding": ("DEFAULT_SHARDS", "Shard", "plan_shards"),
    "repro.campaigns.store": ("CampaignStore", "ShardRecord"),
})
