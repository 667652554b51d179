"""Tests for the Figure 3 classifier and the synthetic generators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.workloads.classify import (
    KernelCategory,
    classify_kernel,
    recommend_policy,
)
from repro.workloads.rodinia import get_benchmark
from repro.workloads.synthetic import (
    make_friendly_kernel,
    make_heavy_kernel,
    make_narrow_kernel,
    make_short_kernel,
)


class TestSyntheticArchetypes:
    def test_short_kernel_classified_short(self, gpu):
        report = classify_kernel(make_short_kernel(gpu), gpu)
        assert report.category is KernelCategory.SHORT
        assert report.isolated_cycles <= gpu.dispatch_latency

    def test_heavy_kernel_classified_heavy(self, gpu):
        report = classify_kernel(make_heavy_kernel(gpu), gpu)
        assert report.category is KernelCategory.HEAVY
        assert report.overlap_fraction < 0.05
        assert report.resident_fraction == pytest.approx(1.0)

    def test_friendly_kernel_classified_friendly(self, gpu):
        report = classify_kernel(make_friendly_kernel(gpu), gpu)
        assert report.category is KernelCategory.FRIENDLY
        assert report.overlap_fraction >= 0.05

    def test_narrow_kernel_is_friendly_with_high_overlap(self, gpu):
        report = classify_kernel(make_narrow_kernel(gpu), gpu)
        assert report.category is KernelCategory.FRIENDLY
        assert report.overlap_fraction > 0.5

    def test_narrow_kernel_width_capped(self, gpu):
        with pytest.raises(ConfigurationError):
            make_narrow_kernel(gpu, blocks=gpu.num_sms)

    def test_short_kernel_width_validation(self, gpu):
        with pytest.raises(ConfigurationError):
            make_short_kernel(gpu, width_fraction=0.0)

    def test_friendly_kernel_waves_validation(self, gpu):
        with pytest.raises(ConfigurationError):
            make_friendly_kernel(gpu, waves=0)


class TestPolicyRecommendation:
    def test_srrs_for_short_and_heavy(self):
        assert recommend_policy(KernelCategory.SHORT) == "srrs"
        assert recommend_policy(KernelCategory.HEAVY) == "srrs"

    def test_half_for_friendly(self):
        assert recommend_policy(KernelCategory.FRIENDLY) == "half"


class TestRodiniaCategories:
    """The suite's dominant kernels land in their documented category."""

    @pytest.mark.parametrize("name", ["backprop", "bfs", "gaussian", "nn"])
    def test_short_benchmarks(self, gpu, name):
        bench = get_benchmark(name)
        report = classify_kernel(bench.kernels[0], gpu)
        assert report.category is KernelCategory.SHORT

    @pytest.mark.parametrize("name", ["hotspot", "hotspot3D", "leukocyte",
                                      "myocyte", "nw"])
    def test_friendly_benchmarks(self, gpu, name):
        bench = get_benchmark(name)
        report = classify_kernel(bench.kernels[0], gpu)
        assert report.category is KernelCategory.FRIENDLY
