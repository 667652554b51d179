"""Tests for kernel descriptors and launches."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelDescriptor, KernelLaunch, dependent_chain


def _kd(**overrides) -> KernelDescriptor:
    params = dict(name="k", grid_blocks=4, threads_per_block=128,
                  work_per_block=100.0)
    params.update(overrides)
    return KernelDescriptor(**params)


class TestKernelDescriptor:
    def test_totals(self):
        kd = _kd(grid_blocks=5, threads_per_block=64, work_per_block=10.0,
                 bytes_per_block=3.0)
        assert kd.total_work == pytest.approx(50.0)
        assert kd.total_bytes == pytest.approx(15.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"grid_blocks": 0},
            {"threads_per_block": 0},
            {"regs_per_thread": -1},
            {"shared_mem_per_block": -1},
            {"work_per_block": -1.0},
            {"output_bytes": -1},
            {"input_bytes": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            _kd(**overrides)

    def test_zero_work_zero_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            _kd(work_per_block=0.0, bytes_per_block=0.0)

    def test_pure_memory_kernel_allowed(self):
        kd = _kd(work_per_block=0.0, bytes_per_block=100.0)
        assert kd.total_bytes == pytest.approx(400.0)

    def test_ideal_cycles_compute_bound(self):
        kd = _kd(grid_blocks=12, work_per_block=100.0)
        # 1200 work units over 6 SMs at throughput 1
        assert kd.ideal_cycles(num_sms=6) == pytest.approx(200.0)

    def test_ideal_cycles_wave_bound(self):
        kd = _kd(grid_blocks=7, work_per_block=100.0)
        # 7 blocks, 1/SM/wave on 6 SMs -> 2 waves
        assert kd.ideal_cycles(num_sms=6, blocks_per_sm=1) == pytest.approx(200.0)

    def test_ideal_cycles_dram_bound(self):
        kd = _kd(grid_blocks=6, work_per_block=1.0, bytes_per_block=600.0)
        assert kd.ideal_cycles(num_sms=6, dram_bandwidth=6.0) == pytest.approx(600.0)

    def test_ideal_cycles_rejects_bad_sm_count(self):
        with pytest.raises(ConfigurationError):
            _kd().ideal_cycles(num_sms=0)


class TestKernelLaunch:
    def test_logical_id_defaults_to_instance_id(self):
        launch = KernelLaunch(kernel=_kd(), instance_id=7)
        assert launch.logical_id == 7

    def test_explicit_logical_id_preserved(self):
        launch = KernelLaunch(kernel=_kd(), instance_id=7, logical_id=3)
        assert launch.logical_id == 3

    def test_self_dependency_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelLaunch(kernel=_kd(), instance_id=1, depends_on=(1,))

    @pytest.mark.parametrize("field,value", [
        ("instance_id", -1), ("copy_id", -1), ("arrival_offset", -0.5),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(kernel=_kd(), instance_id=0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            KernelLaunch(**kwargs)


class TestDependentChain:
    def test_chain_links_consecutive_launches(self):
        chain = dependent_chain([_kd(), _kd(), _kd()])
        assert chain[0].depends_on == ()
        assert chain[1].depends_on == (chain[0].instance_id,)
        assert chain[2].depends_on == (chain[1].instance_id,)

    def test_chain_instance_and_logical_ids(self):
        chain = dependent_chain(
            [_kd(), _kd()], first_instance_id=10, logical_base=5
        )
        assert [l.instance_id for l in chain] == [10, 11]
        assert [l.logical_id for l in chain] == [5, 6]

    def test_chain_copy_and_tag_propagate(self):
        chain = dependent_chain([_kd()], copy_id=2, tag="app")
        assert chain[0].copy_id == 2
        assert chain[0].tag == "app"

    def test_empty_chain_is_empty(self):
        assert dependent_chain([]) == []
