"""Tests for the analytic COTS end-to-end model (Figure 5 substrate)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.cots import COTSDevice, EndToEndBreakdown, cots_end_to_end
from repro.workloads.rodinia import get_benchmark


class TestCOTSDevice:
    def test_defaults_valid(self):
        device = COTSDevice()
        assert device.h2d_gbps > 0

    @pytest.mark.parametrize("field,value", [
        ("h2d_gbps", 0.0),
        ("d2h_gbps", -1.0),
        ("compare_gbps", 0.0),
        ("launch_overhead_ms", -0.1),
        ("alloc_ms", -0.1),
        ("free_ms", -0.1),
        ("sync_overhead_ms", -0.1),
    ])
    def test_invalid_parameters(self, field, value):
        with pytest.raises(ConfigurationError):
            COTSDevice(**{field: value})

    def test_free_defaults_to_zero_cost(self):
        # backward compatibility: profiles fold cudaFree into cpu_ms
        assert COTSDevice().free_ms == 0.0

    def test_transfer_time(self):
        device = COTSDevice(h2d_gbps=8.0)
        # 80 MB at 8 GB/s = 10 ms
        assert device.transfer_ms(80.0, 8.0) == pytest.approx(10.0)


class TestEndToEndModel:
    def test_baseline_breakdown_sums(self):
        bench = get_benchmark("hotspot")
        breakdown = cots_end_to_end(bench)
        parts = (
            breakdown.cpu_ms + breakdown.alloc_ms + breakdown.h2d_ms
            + breakdown.launch_ms + breakdown.kernel_ms + breakdown.d2h_ms
        )
        assert breakdown.total_ms == pytest.approx(parts)
        assert breakdown.compare_ms == 0.0
        assert breakdown.sync_ms == 0.0

    def test_redundant_doubles_gpu_protocol_only(self):
        bench = get_benchmark("hotspot")
        base = cots_end_to_end(bench)
        red = cots_end_to_end(bench, redundant=True)
        assert red.cpu_ms == base.cpu_ms          # host work not replicated
        assert red.kernel_ms == pytest.approx(2 * base.kernel_ms)
        assert red.h2d_ms == pytest.approx(2 * base.h2d_ms)
        assert red.d2h_ms == pytest.approx(2 * base.d2h_ms)
        assert red.compare_ms > 0
        assert red.sync_ms > 0

    def test_tmr_triples_kernel_time(self):
        bench = get_benchmark("hotspot")
        red3 = cots_end_to_end(bench, redundant=True, copies=3)
        base = cots_end_to_end(bench)
        assert red3.kernel_ms == pytest.approx(3 * base.kernel_ms)
        # two comparisons against the primary
        red2 = cots_end_to_end(bench, redundant=True, copies=2)
        assert red3.compare_ms == pytest.approx(2 * red2.compare_ms)

    def test_kernel_override(self):
        bench = get_benchmark("hotspot")
        breakdown = cots_end_to_end(bench, kernel_ms_override=123.0)
        assert breakdown.kernel_ms == pytest.approx(123.0)

    def test_kernel_dominated_benchmarks_hurt_most(self):
        def ratio(name):
            bench = get_benchmark(name)
            return (
                cots_end_to_end(bench, redundant=True).total_ms
                / cots_end_to_end(bench).total_ms
            )

        assert ratio("cfd") > 1.8
        assert ratio("streamcluster") > 1.8
        assert ratio("leukocyte") < 1.2   # host/IO dominated
        assert ratio("nn") < 1.1

    def test_launch_overhead_scales_with_launches(self):
        slow_launch = COTSDevice(launch_overhead_ms=1.0)
        bench = get_benchmark("cfd")  # 12000 launches
        breakdown = cots_end_to_end(bench, slow_launch)
        assert breakdown.launch_ms == pytest.approx(12000.0)
