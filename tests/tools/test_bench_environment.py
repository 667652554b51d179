"""The BENCH environment stamp records the core count, and the gate sees it."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_artifacts = _load("_bench_artifacts",
                        _ROOT / "benchmarks" / "_bench_artifacts.py")
bench_compare = _load("bench_compare", _ROOT / "tools" / "bench_compare.py")


def _artifact(cpu_count: int):
    environment = dict(bench_artifacts.environment_metadata(),
                       cpu_count=cpu_count)
    return {"schema": "bench-test/v2", "generated_by": "tests",
            "environment": environment,
            "scenarios": {"s": {"digest": "abc"}}}


def test_environment_records_cpu_count():
    assert bench_artifacts.environment_metadata()["cpu_count"] == \
        os.cpu_count()


def test_gate_warns_across_core_counts():
    failures, warnings = bench_compare.compare_artifacts(_artifact(2),
                                                         _artifact(8))
    assert failures == []
    assert any("environments differ" in w for w in warnings)


def test_same_core_count_is_quiet():
    _, warnings = bench_compare.compare_artifacts(_artifact(2), _artifact(2))
    assert not any("environments differ" in w for w in warnings)
