"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact (the same registered scenario
a ``python -m repro`` figure command runs) and prints the rows/series the
paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

(``-s`` shows the printed tables alongside the timing statistics.)
"""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig


@pytest.fixture(scope="session")
def gpu() -> GPUConfig:
    """The paper's 6-SM simulated platform."""
    return GPUConfig.gpgpusim_like()
