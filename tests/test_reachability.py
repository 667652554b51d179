"""Reachability: every public name in ``src/repro`` is used by the program.

A module or name stays only if a spec field, a CLI command, a figure, a
BENCH leg or a shipped example reaches it (ROADMAP, "Rules for
deletions").  This test makes that rule mechanical.  It parses
``src/repro``, ``benchmarks/``, ``examples/``, ``perfbench/`` and
``tools/`` and fails on a public top-level function, class or
module-level constant of ``src/repro`` that no code there names outside
the name's own definition.  A ``Name``, an ``Attribute`` or an import
alias counts as a use; strings do not, so neither ``__all__`` nor the
lazy-export tables of the package ``__init__`` modules keep a name
alive.  Tests are not a root: a name only tests reach is deleted, or it
sits on :data:`ALLOWLIST` with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ROOTS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples",
         ROOT / "perfbench", ROOT / "tools")

#: ``module path (relative to src/repro)::name`` -> why it stays unreached.
ALLOWLIST: Dict[str, str] = {
    "faults/outcomes.py::classify_outcome":
        "the per-block oracle of tests/faults/test_classify_equivalence.py",
}


def _sources() -> Iterator[Tuple[Optional[str], ast.Module]]:
    """``(module, tree)`` of every root file; ``module`` is the path
    relative to ``src/repro``, or ``None`` outside the package."""
    for root in ROOTS:
        for path in sorted(root.rglob("*.py")):
            module = (path.relative_to(PACKAGE).as_posix()
                      if PACKAGE in path.parents else None)
            yield module, ast.parse(path.read_text(encoding="utf-8"))


def _used_names(node: ast.AST) -> Counter:
    """Every name ``node`` uses: loaded names, attributes, import aliases."""
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rpartition(".")[2]] += 1
    return used


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, node)`` of each public top-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def unreached(
    sources: Optional[Iterable[Tuple[Optional[str], ast.Module]]] = None,
) -> List[str]:
    """``module::name`` of every public definition nothing else names.

    ``sources`` defaults to the parsed roots (:func:`_sources`).
    """
    used: Counter = Counter()
    definitions = []
    for module, tree in _sources() if sources is None else sources:
        used.update(_used_names(tree))
        if module is not None:
            definitions.extend(
                (f"{module}::{name}", name, node)
                for name, node in _public_definitions(tree)
            )
    return sorted(
        key for key, name, node in definitions
        if used[name] - _used_names(node)[name] <= 0
    )


def test_every_public_name_is_reached() -> None:
    stray = [key for key in unreached() if key not in ALLOWLIST]
    assert not stray, (
        "public names that nothing outside tests reaches (delete them, "
        f"or allowlist them with a reason): {stray}"
    )


def test_the_allowlist_is_not_stale() -> None:
    flagged = set(unreached())
    stale = sorted(set(ALLOWLIST) - flagged)
    assert not stale, (
        "allowlist entries that are now reached or no longer exist: "
        f"{stale}"
    )


def _unreached_in(files: Dict[Optional[str], str]) -> List[str]:
    """Apply the rule to in-memory files, keyed like :func:`_sources`:
    a package module path, or ``None`` for a file of another root."""
    return unreached((module, ast.parse(text))
                     for module, text in files.items())


HELPER = "def helper():\n    pass\n"


def test_a_name_nothing_uses_is_flagged() -> None:
    assert _unreached_in({"a.py": HELPER}) == ["a.py::helper"]


@pytest.mark.parametrize("use", [
    "from repro.a import helper\n",
    "import repro.a.helper\n",
    "import repro.a as a\na.helper()\n",
    "def run():\n    return helper\n",
], ids=["import-alias", "dotted-import", "attribute", "name"])
def test_a_use_outside_the_definition_reaches(use: str) -> None:
    assert _unreached_in({"a.py": HELPER, None: use}) == []


def test_string_tables_do_not_reach() -> None:
    assert _unreached_in({
        "a.py": HELPER,
        "__init__.py": ("__all__ = ['helper']\n"
                        "_LAZY = {'helper': 'repro.a'}\n"),
    }) == ["a.py::helper"]


def test_a_self_reference_does_not_reach() -> None:
    assert _unreached_in({
        "a.py": "def helper(n):\n    return helper(n - 1) if n else 0\n",
    }) == ["a.py::helper"]


def test_a_store_does_not_reach() -> None:
    assert _unreached_in({"a.py": "LIMIT = 3\n",
                          None: "LIMIT = 4\n"}) == ["a.py::LIMIT"]


def test_constants_and_classes_are_checked_private_names_are_not() -> None:
    assert _unreached_in({"a.py": ("RATE: float = 0.5\n"
                                   "class Probe:\n    pass\n"
                                   "def _internal():\n    pass\n")}) == [
        "a.py::Probe", "a.py::RATE"]
