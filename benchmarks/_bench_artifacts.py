"""Shared merge-writer for the ``BENCH_*.json`` performance artifacts.

Every benchmark module tracks its scenario metrics in one JSON artifact
at the repository root.  This module centralises the writing so all four
artifacts share one schema generation (``bench-*/v2``) and carry the
environment metadata (``python_version``, ``platform``, ``cpu_count``)
that makes cross-run comparisons interpretable — a 3.13 run on one
kernel is not comparable to a 3.9 run on another, nor a 4-worker
scaling leg on 2 cores to one on 8, and the regression gate
(``python -m repro compare``) warns when environments differ.

Schema history:

* ``v1`` — ``{"schema", "generated_by", "scenarios"}``;
* ``v2`` — adds a top-level ``"environment"`` object with
  ``python_version`` and ``platform`` (later also ``cpu_count``, an
  additive key: older v2 artifacts simply lack it).

The one reader, ``python -m repro compare`` (``repro.stats.compare``),
takes both generations.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

__all__ = ["BenchArtifact", "environment_metadata"]

#: Repository root (the directory the BENCH_*.json artifacts live in).
REPO_ROOT = Path(__file__).resolve().parent.parent


def environment_metadata() -> Dict[str, object]:
    """The environment stamp recorded in every v2 artifact."""
    return {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


class BenchArtifact:
    """Merge-writer for one ``BENCH_*.json`` artifact.

    Merging (rather than rewriting from this process's records alone)
    keeps the other scenarios' entries intact when only a subset of a
    suite runs (``-k``, ``-x`` aborts), so a tracked artifact never
    silently loses data.

    Args:
        filename: artifact name at the repository root
            (e.g. ``"BENCH_simulator.json"``).
        schema: the artifact's schema tag (e.g. ``"bench-simulator/v2"``).
        generated_by: repository-relative path of the generating module.
    """

    def __init__(self, filename: str, schema: str, generated_by: str) -> None:
        self._path = REPO_ROOT / filename
        self._schema = schema
        self._generated_by = generated_by
        self._records: Dict[str, Dict[str, object]] = {}

    def record(self, scenario: str, **metrics: object) -> None:
        """Merge one scenario's metrics into the artifact on disk."""
        self._records[scenario] = metrics
        scenarios: Dict[str, Dict[str, object]] = {}
        try:
            scenarios = json.loads(
                self._path.read_text()
            ).get("scenarios", {})
        except (OSError, ValueError):
            pass  # absent or unreadable artifact: start fresh
        scenarios.update(self._records)
        payload = {
            "schema": self._schema,
            "generated_by": self._generated_by,
            "environment": environment_metadata(),
            "scenarios": scenarios,
        }
        self._path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
