"""Import-surface tests: each entry point loads only what it runs.

Package ``__init__`` modules export lazily (``repro._lazy``), the CLI
imports only the command module of the command it runs
(``repro.cli.COMMANDS``) and each handler imports its own layers, so
``import repro`` and ``python -m repro --version`` load no subsystem,
``campaign report`` loads none of the analysis, linter, telemetry-archive,
statistics-compare, platform or stream modules, and ``campaign
report``/``status`` load none of the execution stack.  The executing
commands (``campaign run``, ``stream run``, ``batch``) load the pool
stack only for a pool, the telemetry internals only for a session and
optional features only when a spec uses them.  These tests check the
module sets of fresh interpreters, not timings.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

import pytest

from repro.cli import COMMANDS, main

SRC = Path(__file__).resolve().parents[1] / "src"
STREAM_SPEC = SRC.parent / "examples" / "specs" / "stream.json"

#: Modules a bare import or ``--version`` may load: no subsystem.
CORE = {"repro", "repro._lazy", "repro.__main__", "repro.cli", "repro.errors"}

#: Modules ``campaign report --json`` must not load.
NOT_FOR_REPORT = (
    "repro.gpu.reference", "repro.lint",
    "repro.obs.diff", "repro.obs.export",
    "repro.stats.compare", "repro.platform", "repro.streams",
)

#: The execution stack: what the read side of a campaign never loads.
EXECUTION = (
    "repro.gpu.simulator", "repro.gpu.scheduler", "repro.redundancy.manager",
    "repro.faults.injector", "repro.exec", "repro.obs.session",
    "repro.iso26262", "repro.gpu.cots", "repro.workloads.rodinia",
    "multiprocessing", "concurrent.futures",
)

#: What an executing command whose tasks run in-process, telemetry off,
#: never loads: the pool stack and the telemetry schema, ticker and
#: worker sidecars.
POOL_AND_TELEMETRY = (
    "concurrent.futures", "multiprocessing", "repro.obs.worker",
    "repro.obs.events", "repro.obs.progress",
)

#: Per executing command: its argv (``{root}`` is a scratch directory)
#: and what it loads none of beyond :data:`POOL_AND_TELEMETRY`.
EXECUTING = {
    "campaign-run": (
        ["campaign", "run", "--spec", "{root}/campaign.json",
         "--dir", "{root}/store", "--workers", "2"],
        (),
    ),
    "stream-run": (
        ["stream", "run", "--spec", str(STREAM_SPEC), "--frames", "1",
         "--workers", "1"],
        ("repro.stats", "repro.iso26262", "repro.obs.profiling"),
    ),
    "batch": (
        ["batch", "{root}/batch.json", "--workers", "2", "--json"],
        ("repro.faults", "repro.gpu.cots", "repro.workloads.classify"),
    ),
}


def loaded_modules(code: str, roots: Sequence[str] = ("repro",)
                   ) -> List[str]:
    """Modules under ``roots`` loaded after running ``code`` in a fresh
    process."""
    probe = (
        code + "\nimport json, sys\n"
        f"roots = {tuple(roots)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in roots)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_cli(argv: List[str]) -> str:
    """Code running ``python -m repro ARGV`` through ``repro.__main__``."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


def within(loaded: Sequence[str], prefixes: Sequence[str]) -> List[str]:
    """The ``loaded`` modules that are, or sit under, one of ``prefixes``."""
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A small persisted campaign (complete)."""
    root = tmp_path_factory.mktemp("surface")
    spec = root / "spec.json"
    spec.write_text(json.dumps({
        "run": {"workload": {"benchmark": "hotspot"}, "policy": "srrs"},
        "faults": {"transient_ccf": 4, "permanent_sm": 2, "seu": 2},
        "shards": 2,
    }))
    path = root / "store"
    assert main(["campaign", "run", "--spec", str(spec),
                 "--dir", str(path)]) == 0
    return path


def package_names() -> List[str]:
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )


class TestModuleSets:
    def test_import_repro_loads_no_subsystem(self):
        assert set(loaded_modules("import repro")) <= CORE

    def test_version_loads_no_subsystem(self):
        assert set(loaded_modules(run_cli(["--version"]))) <= CORE

    def test_campaign_report_loads_only_the_campaign_path(self, store,
                                                          capsys):
        capsys.readouterr()
        loaded = loaded_modules(
            run_cli(["campaign", "report", "--dir", str(store), "--json"])
        )
        # the read side folds through repro.campaigns.fold; the runner
        # and its execution stack stay unloaded
        assert "repro.campaigns.fold" in loaded
        assert "repro.campaigns.runner" not in loaded
        assert within(loaded, NOT_FOR_REPORT) == []

    @pytest.mark.parametrize("argv", [["report", "--json"], ["status"]],
                             ids=["report", "status"])
    def test_campaign_read_side_loads_no_execution_stack(self, store, argv):
        loaded = loaded_modules(
            run_cli(["campaign", argv[0], "--dir", str(store)] + argv[1:]),
            roots=("repro", "multiprocessing", "concurrent"),
        )
        assert within(loaded, EXECUTION) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_command_loads_only_its_own_command_module(self, command):
        loaded = loaded_modules(run_cli([command, "--help"]))
        assert within(loaded, ["repro.commands"]) == sorted({
            "repro.commands", "repro.commands.common",
            COMMANDS[command].module,
        })

    @pytest.mark.parametrize("command", sorted(EXECUTING))
    def test_executing_command_loads_only_what_it_runs(self, tmp_path,
                                                      command):
        # one shard, one frame, one spec: nothing for a pool to run
        (tmp_path / "campaign.json").write_text(json.dumps({
            "run": {"workload": {"benchmark": "hotspot"}, "policy": "srrs"},
            "faults": {"transient_ccf": 1, "permanent_sm": 0, "seu": 0},
            "shards": 1,
        }))
        (tmp_path / "batch.json").write_text(json.dumps([
            {"workload": {"benchmark": "bfs"}, "policy": "srrs",
             "baseline": True},
        ]))
        argv, unused = EXECUTING[command]
        loaded = loaded_modules(
            run_cli([arg.format(root=tmp_path) for arg in argv]),
            roots=("repro", "multiprocessing", "concurrent"),
        )
        assert "repro.gpu.simulator" in loaded
        assert within(loaded, POOL_AND_TELEMETRY + unused) == []

    def test_help_lists_every_command_without_loading_a_group(self, capsys):
        assert set(loaded_modules(run_cli(["--help"]))) <= CORE
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name, command in COMMANDS.items():
            assert name in out
            assert command.help in " ".join(out.split())


class TestLazyExports:
    @pytest.mark.parametrize("package", package_names())
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert name in listed, f"{package}.{name} missing from dir()"
            assert getattr(module, name) is not None, f"{package}.{name}"

    def test_unknown_attribute_is_an_attribute_error(self):
        import repro.faults

        assert not hasattr(repro.faults, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(repro.faults, "no_such_export")

    def test_submodules_stay_reachable_as_attributes(self):
        module = loaded_modules(
            "import repro\nassert repro.gpu.trace.ExecutionTrace"
        )
        assert "repro.gpu.trace" in module

    def test_cli_help_defaults_match_the_library(self, capsys):
        from repro.obs.session import DEFAULT_HEARTBEAT_S

        with pytest.raises(SystemExit):
            main(["campaign", "run", "--help"])
        assert (f"default {DEFAULT_HEARTBEAT_S}"
                in " ".join(capsys.readouterr().out.split()))


    def test_spec_defaults_match_the_library(self):
        from repro.api.spec import RunSpec, WorkloadSpec
        from repro.redundancy.diversity import DEFAULT_PHASE_TOLERANCE

        spec = RunSpec(workload=WorkloadSpec(benchmark="hotspot"))
        assert spec.phase_tolerance == DEFAULT_PHASE_TOLERANCE


class TestImportRule:
    def test_no_module_imports_a_package_root(self):
        packages = set(package_names())
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bad = [a.name for a in node.names if a.name in packages]
                elif isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                    # the version string is defined in the root itself
                    bad = ([node.module] if node.module in packages
                           and names != {"__version__"} else [])
                else:
                    continue
                offenders += [f"{path.relative_to(SRC).as_posix()}:"
                              f"{node.lineno} {name}" for name in bad]
        assert offenders == []
