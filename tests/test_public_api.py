"""Public-API surface tests.

Guards the import contract a downstream user relies on: everything in
``__all__`` resolves, the quickstart from the package docstring works,
and error types share the documented base class.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import ReproError


class TestTopLevelSurface:
    def test_version(self):
        assert repro.__version__ == "1.25.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.faults
        import repro.gpu
        import repro.gpu.scheduler
        import repro.iso26262
        import repro.platform
        import repro.redundancy
        import repro.streams
        import repro.workloads

        for module in (
            repro.gpu, repro.gpu.scheduler, repro.redundancy,
            repro.iso26262, repro.faults, repro.workloads, repro.analysis,
            repro.streams, repro.platform,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_docstring_quickstart_works(self):
        gpu = repro.GPUConfig.gpgpusim_like()
        kernel = repro.KernelDescriptor(
            name="adas/detect", grid_blocks=36, threads_per_block=256,
            work_per_block=4000.0,
        )
        run = repro.RedundantKernelManager(gpu, policy="srrs").run([kernel])
        assert run.all_clean and run.diversity.fully_diverse


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "ConfigurationError", "SchedulingError", "SimulationError",
        "CapacityError", "RedundancyError", "SafetyViolation",
        "FaultInjectionError", "StreamError", "PlatformError",
        "WorkerCountError", "LintError",
    ])
    def test_all_errors_derive_from_base(self, name):
        error_type = getattr(repro, name)
        assert issubclass(error_type, ReproError)

    def test_catching_the_base_class_works(self):
        with pytest.raises(ReproError):
            repro.GPUConfig(num_sms=0)

