"""Experiment runners and report rendering."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.experiments": (
        "CoverageRow", "Fig3Row", "Fig4Row", "Fig5Row", "PolicyFitRow",
        "dispatch_latency_sweep", "fault_coverage_by_policy",
        "fig3_kernel_categories", "fig4_scheduler_comparison",
        "fig5_cots_comparison", "policy_fit_matrix", "sm_count_sweep",
    ),
    "repro.analysis.campaigns": (
        "CampaignScalingRow", "campaign_worker_scaling",
    ),
    "repro.analysis.streams": (
        "StreamRateRow", "arrival_rate_sweep", "stream_summary_rows",
    ),
    "repro.analysis.platform": (
        "DeviceCountRow", "PlacementPolicyRow", "device_count_sweep",
        "placement_policy_sweep", "platform_summary_rows",
    ),
    "repro.analysis.bounds": (
        "half_chain_bound", "isolated_kernel_bound", "srrs_chain_bound",
    ),
    "repro.analysis.report": (
        "render_bars", "render_grouped_bars", "render_table",
    ),
})
