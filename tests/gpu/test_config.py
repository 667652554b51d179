"""Tests for GPU/SM configuration objects."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig, SMConfig


class TestSMConfig:
    def test_defaults_are_valid(self):
        sm = SMConfig()
        assert sm.max_threads > 0
        assert sm.max_blocks > 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_threads", 0),
            ("max_blocks", 0),
            ("registers", 0),
            ("shared_memory", -1),
            ("issue_throughput", 0.0),
            ("issue_throughput", -1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SMConfig(**{field: value})

    def test_frozen(self):
        sm = SMConfig()
        with pytest.raises(Exception):
            sm.max_threads = 99  # type: ignore[misc]


class TestGPUConfig:
    def test_defaults_are_valid(self):
        gpu = GPUConfig()
        assert gpu.num_sms == 6
        assert list(gpu.sm_ids) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_sms", 0),
            ("num_sms", -2),
            ("clock_mhz", 0.0),
            ("dram_bandwidth", 0.0),
            ("dispatch_latency", -1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            GPUConfig(**{field: value})

    def test_gpgpusim_preset_has_six_sms(self):
        assert GPUConfig.gpgpusim_like().num_sms == 6

    def test_gpgpusim_preset_sm_count_override(self):
        assert GPUConfig.gpgpusim_like(num_sms=12).num_sms == 12

    def test_gtx1050ti_preset_matches_paper_sm_count(self):
        # "a GTX 1050 Ti GPU which has the same number of SMs as the
        # simulated platform"
        assert GPUConfig.gtx1050ti_like().num_sms == 6

    def test_cycles_to_ms(self):
        gpu = GPUConfig(clock_mhz=1000.0)
        assert gpu.cycles_to_ms(1_000_000) == pytest.approx(1.0)

    def test_cycles_to_ms_scales_with_clock(self):
        slow = GPUConfig(clock_mhz=500.0)
        fast = GPUConfig(clock_mhz=1000.0)
        assert slow.cycles_to_ms(1000) == pytest.approx(2 * fast.cycles_to_ms(1000))
