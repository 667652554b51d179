"""Tests for the Rodinia-shaped benchmark suite."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.occupancy import blocks_per_sm
from repro.workloads.rodinia import (
    FIG4_BENCHMARKS,
    FIG5_BENCHMARKS,
    COTSProfile,
    get_benchmark,
)

#: Every benchmark of the suite: Figure 5 runs all of them.
SUITE = tuple(get_benchmark(name) for name in FIG5_BENCHMARKS)


class TestSuiteStructure:
    def test_fig4_has_the_papers_eleven_benchmarks(self):
        assert len(FIG4_BENCHMARKS) == 11
        assert FIG4_BENCHMARKS == (
            "backprop", "bfs", "dwt2d", "gaussian", "hotspot", "hotspot3D",
            "leukocyte", "lud", "myocyte", "nn", "nw",
        )

    def test_fig5_superset_of_fig4(self):
        assert set(FIG4_BENCHMARKS) <= set(FIG5_BENCHMARKS)

    def test_fig5_includes_the_cots_outliers(self):
        assert "cfd" in FIG5_BENCHMARKS
        assert "streamcluster" in FIG5_BENCHMARKS

    def test_every_fig4_benchmark_has_kernels(self):
        for name in FIG4_BENCHMARKS:
            assert get_benchmark(name).kernels

    def test_lookup_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("quake3")

    def test_fig5_names_each_benchmark_once_sorted(self):
        names = [b.name for b in SUITE]
        assert names == sorted(set(names)) == list(FIG5_BENCHMARKS)


class TestKernelValidity:
    def test_every_kernel_fits_on_the_papers_gpu(self):
        gpu = GPUConfig.gpgpusim_like()
        for bench in SUITE:
            for kernel in bench.kernels:
                assert blocks_per_sm(kernel, gpu.sm) >= 1  # must not raise

    def test_every_kernel_fits_in_a_half_partition(self):
        # HALF must be able to run every benchmark: a single block must
        # fit on one SM (partitions have full-size SMs)
        gpu = GPUConfig.gpgpusim_like()
        for name in FIG4_BENCHMARKS:
            for kernel in get_benchmark(name).kernels:
                assert kernel.threads_per_block <= gpu.sm.max_threads

    def test_myocyte_has_minimal_parallelism(self):
        # the property behind the paper's 99 % SRRS outlier
        bench = get_benchmark("myocyte")
        assert all(k.grid_blocks <= 2 for k in bench.kernels)

    def test_backprop_and_bfs_wider_than_half(self):
        # "very short kernels requiring more than half of the resources"
        gpu = GPUConfig.gpgpusim_like()
        for name in ("backprop", "bfs"):
            for kernel in get_benchmark(name).kernels:
                assert kernel.grid_blocks > gpu.num_sms // 2

    def test_cots_profiles_complete(self):
        for bench in SUITE:
            profile = bench.cots
            assert profile.cpu_ms >= 0
            assert profile.kernel_ms > 0
            assert profile.n_launches >= 1

    def test_cfd_and_streamcluster_kernel_dominated(self):
        for name in ("cfd", "streamcluster"):
            profile = get_benchmark(name).cots
            assert profile.kernel_ms > profile.cpu_ms

    def test_most_benchmarks_host_dominated(self):
        host_dominated = [
            b for b in SUITE
            if b.cots.cpu_ms > b.cots.kernel_ms
        ]
        assert len(host_dominated) >= len(SUITE) - 2


class TestCOTSProfileValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            COTSProfile(cpu_ms=-1, kernel_ms=1, input_mb=1, output_mb=1,
                        n_launches=1)

    def test_zero_launches_rejected(self):
        with pytest.raises(ConfigurationError):
            COTSProfile(cpu_ms=1, kernel_ms=1, input_mb=1, output_mb=1,
                        n_launches=0)
