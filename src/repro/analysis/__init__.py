"""Report rendering, analytic bounds and the stream/platform sweeps."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.streams": (
        "StreamRateRow", "arrival_rate_sweep", "stream_summary_rows",
    ),
    "repro.analysis.platform": (
        "DeviceCountRow", "device_count_sweep", "platform_summary_rows",
    ),
    "repro.analysis.bounds": (
        "half_chain_bound", "isolated_kernel_bound", "srrs_chain_bound",
    ),
    "repro.analysis.report": (
        "render_grouped_bars", "render_table",
    ),
})
