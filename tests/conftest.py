"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import errno
import os

import pytest

import repro.journal

from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor


@pytest.fixture
def gpu() -> GPUConfig:
    """The paper's 6-SM GPGPU-Sim-like configuration."""
    return GPUConfig.gpgpusim_like()


@pytest.fixture
def small_gpu() -> GPUConfig:
    """A tiny 2-SM GPU for hand-checkable scenarios."""
    return GPUConfig(
        name="tiny-2sm",
        num_sms=2,
        sm=SMConfig(max_threads=512, max_blocks=4, registers=16384,
                    shared_memory=16384, issue_throughput=1.0),
        clock_mhz=1000.0,
        dram_bandwidth=32.0,
        dispatch_latency=100.0,
    )


@pytest.fixture
def simple_kernel() -> KernelDescriptor:
    """One-wave kernel: 6 blocks, pure compute."""
    return KernelDescriptor(
        name="test/simple",
        grid_blocks=6,
        threads_per_block=128,
        work_per_block=1000.0,
    )


@pytest.fixture
def tiny_kernel() -> KernelDescriptor:
    """Single-block kernel for minimal scenarios."""
    return KernelDescriptor(
        name="test/tiny",
        grid_blocks=1,
        threads_per_block=64,
        work_per_block=500.0,
    )


@pytest.fixture
def memory_kernel() -> KernelDescriptor:
    """Memory-heavy kernel exercising the DRAM sharing path."""
    return KernelDescriptor(
        name="test/memory",
        grid_blocks=6,
        threads_per_block=128,
        work_per_block=100.0,
        bytes_per_block=48000.0,
    )


def _inject(run, plan):
    from repro.campaigns.runner import classify_shard, fold_report
    from repro.campaigns.sharding import Shard
    from repro.faults.campaign import FaultCampaign

    shard = Shard(index=0, start=0, stop=plan.total_injections)
    return fold_report([classify_shard(FaultCampaign(run), plan, shard)])


@pytest.fixture
def inject():
    """``inject(run, plan)``: ``plan``'s whole indexed fault population
    classified against the clean ``run`` and folded into one report, as
    ``campaign run`` does."""
    return _inject


class _FullDiskFile:
    """A file whose writes put half their data down, then fail."""

    def __init__(self, handle, disk) -> None:
        self._handle = handle
        self._disk = disk

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def write(self, data):
        if self._disk.spend():
            return self._handle.write(data)
        self._handle.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk:
    """Arms ENOSPC on ``repro.journal``'s ``fsync`` or file writes."""

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch
        self._left = 0

    def spend(self) -> bool:
        """True while calls remain before the disk is full."""
        self._left -= 1
        return self._left >= 0

    def __call__(self, failing: str, *, after: int = 0) -> None:
        """Fail every ``failing`` call (``"fsync"`` or ``"write"``) after
        the first ``after``; ``monkeypatch.undo()`` frees the disk."""
        self._left = after
        if failing == "fsync":
            real_fsync = os.fsync

            def fsync(fd):
                if not self.spend():
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                real_fsync(fd)

            self._monkeypatch.setattr(os, "fsync", fsync)
        else:
            self._monkeypatch.setattr(
                repro.journal, "open",
                lambda *args, **kwargs: _FullDiskFile(open(*args, **kwargs),
                                                      self),
                raising=False)


@pytest.fixture
def full_disk(monkeypatch) -> _FullDisk:
    """``full_disk("fsync" | "write", after=N)`` fills the disk that
    :mod:`repro.journal` writes to (ENOSPC), N calls from now."""
    return _FullDisk(monkeypatch)
