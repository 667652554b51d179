"""Golden-value regression tests.

The models are fully deterministic, so the headline numbers that
``python -m repro fig4`` and ``python -m repro fig5`` print can be pinned
exactly.  If a refactor changes any of these, either it introduced a bug
or the goldens below must be regenerated from those commands — both
cases deserve a failing test.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, build_scenario, normalized_busy_cycles

#: (half_ratio, srrs_ratio) per benchmark, as ``repro fig4`` prints them.
FIG4_GOLDEN = {
    "backprop": (1.428, 1.000),
    "bfs": (2.000, 1.000),
    "dwt2d": (1.025, 1.000),
    "gaussian": (1.000, 1.000),
    "hotspot": (1.021, 1.000),
    "hotspot3D": (1.015, 1.000),
    "leukocyte": (1.005, 1.000),
    "lud": (1.126, 1.107),
    "myocyte": (1.000, 1.976),
    "nn": (1.000, 1.000),
    "nw": (1.050, 1.200),
}

#: redundant/baseline end-to-end ratio per benchmark (``repro fig5``).
FIG5_GOLDEN = {
    "cfd": 2.05,
    "streamcluster": 1.95,
    "leukocyte": 1.04,
    "nn": 1.02,
    "backprop": 1.06,
    "myocyte": 1.29,
}


@pytest.fixture(scope="module")
def fig4_ratios():
    return normalized_busy_cycles(Engine().run_many(build_scenario("fig4")))


class TestFig4Goldens:
    @pytest.mark.parametrize("bench_name", sorted(FIG4_GOLDEN))
    def test_half_ratio_pinned(self, fig4_ratios, bench_name):
        expected_half, _ = FIG4_GOLDEN[bench_name]
        assert fig4_ratios[bench_name]["half"] == pytest.approx(
            expected_half, abs=5e-4
        )

    @pytest.mark.parametrize("bench_name", sorted(FIG4_GOLDEN))
    def test_srrs_ratio_pinned(self, fig4_ratios, bench_name):
        _, expected_srrs = FIG4_GOLDEN[bench_name]
        assert fig4_ratios[bench_name]["srrs"] == pytest.approx(
            expected_srrs, abs=5e-4
        )


class TestFig5Goldens:
    def test_ratios_pinned(self):
        rows = {a.cots.benchmark: a.cots
                for a in Engine().run_many(build_scenario("fig5"))}
        for benchmark, expected in FIG5_GOLDEN.items():
            assert rows[benchmark].ratio == pytest.approx(
                expected, abs=0.01
            ), benchmark
