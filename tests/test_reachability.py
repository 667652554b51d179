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
alive.

The same rule covers each public method and property of a public
top-level class, keyed ``module::Class.member``.  A member is reached
when its bare name is used outside its own definition (as above), when
the name is a string constant in the roots outside ``__all__`` and the
``lazy_exports`` tables (the ``Codec.derived_keys`` tuples serialise
properties by name), or when it is a field name of a ``src/repro``
dataclass that mirrors another object through ``getattr(x, f.name)``
over its fields (``DiversitySummary.from_report`` reads the
``DiversityReport`` properties so).  A field of any other dataclass
reaches nothing: it is read as an attribute, which counts already.

Fields are checked too, keyed ``module::Class.field``: each public field
of every ``src/repro`` dataclass, private classes included (the
simulators' per-launch state is private and sits in the hot loop).  A
field is reached when an attribute load of its name occurs in the roots
outside its class's own ``__init__``/``__post_init__``, when its class is
serialised (it derives from ``Codec`` or defines ``to_dict``, so the
report JSON reads every field), or when the string or mirror rule above
reaches the name.  Keyword construction (``Probe(n=1)``) and stores
(``probe.n += 1``) build a field but do not read it.

Tests are not a root: a name only tests reach is deleted, or it sits on
:data:`ALLOWLIST` with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ROOTS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples",
         ROOT / "perfbench", ROOT / "tools")

_VIEW_PROBE = ("the per-instance resident-count probe of "
               "tests/gpu/test_simulator_equivalence.py, which checks the "
               "counters that drive kernel mixing")

#: ``module path (relative to src/repro)::name`` or
#: ``module path::Class.member`` -> why it stays unreached.
ALLOWLIST: Dict[str, str] = {
    "faults/outcomes.py::classify_outcome":
        "the per-block oracle of tests/faults/test_classify_equivalence.py",
    "gpu/kernel.py::KernelDescriptor.ideal_cycles":
        "the analytic lower bound of tests/test_properties.py",
    "redundancy/diversity.py::PairDiversity.is_diverse":
        "the per-pair oracle of DiversityReport.fully_diverse in "
        "tests/redundancy/test_diversity.py",
    "gpu/scheduler/base.py::SchedulerView.resident_blocks_of": _VIEW_PROBE,
    "gpu/simulator.py::GPUSimulator.resident_blocks_of": _VIEW_PROBE,
    "gpu/reference.py::ReferenceSimulator.resident_blocks_of": _VIEW_PROBE,
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


def _is_string_table(node: ast.AST) -> bool:
    """Whether ``node`` is an ``__all__`` assignment or a
    ``lazy_exports(...)`` call, whose strings name without using."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return any(isinstance(sub, ast.Name) and sub.id == "__all__"
                   for target in targets for sub in ast.walk(target))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports")


def _strings(node: ast.AST) -> Counter:
    """Every string constant under ``node`` outside the string tables."""
    found: Counter = Counter()
    if _is_string_table(node):
        return found
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        found[node.value] += 1
    for child in ast.iter_child_nodes(node):
        found.update(_strings(child))
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``dataclass`` in any spelling."""
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name == "dataclass":
            return True
    return False


def _mirrors(node: ast.ClassDef) -> bool:
    """Whether ``node`` reads its fields off another object by name:
    ``getattr(x, f.name)`` over ``fields(...)``."""
    calls = [sub.func.id for sub in ast.walk(node)
             if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
             and (sub.func.id == "fields" or (
                 sub.func.id == "getattr" and len(sub.args) > 1
                 and isinstance(sub.args[1], ast.Attribute)
                 and sub.args[1].attr == "name"))]
    return {"fields", "getattr"} <= set(calls)


def _mirrored_fields(tree: ast.Module) -> Counter:
    """The field names of every mirroring dataclass in ``tree``."""
    return Counter(
        stmt.target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        and _mirrors(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
    )


def _member_uses(node: ast.AST) -> Counter:
    """Every use that reaches a member: a name or a string constant."""
    return _used_names(node) + _strings(node)


def _public_members(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(Class.member, node)`` of each public method and property of
    each public top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield f"{cls.name}.{node.name}", node


def _loads(node: ast.AST) -> Counter:
    """Every attribute name ``node`` loads: ``x.name`` read, not stored."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _base_names(cls: ast.ClassDef) -> List[str]:
    """The bare names of ``cls``'s bases (``Codec``, ``spec.Codec``)."""
    return [base.attr if isinstance(base, ast.Attribute)
            else getattr(base, "id", "") for base in cls.bases]


def _codecs(bases: Dict[str, List[str]]) -> Set[str]:
    """Names of the classes deriving from ``Codec`` at any depth."""
    found = {"Codec"}
    while True:
        more = {name for name, parents in bases.items()
                if found.intersection(parents)} - found
        if not more:
            return found
        found |= more


def _fields(tree: ast.Module) -> Iterator[Tuple[ast.ClassDef, str]]:
    """``(class, field)`` of each public field of each dataclass in
    ``tree``, private and nested classes included."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and not stmt.target.id.startswith("_")):
                    yield cls, stmt.target.id


def _init_loads(cls: ast.ClassDef) -> Counter:
    """Attribute loads in ``cls``'s own ``__init__``/``__post_init__``,
    which validate or derive a field but do not consume it."""
    return sum((_loads(node) for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name in ("__init__", "__post_init__")), Counter())


def _serialised(cls: ast.ClassDef, codecs: Set[str]) -> bool:
    """Whether the report JSON reads every field of ``cls``."""
    return cls.name in codecs or any(
        isinstance(node, ast.FunctionDef) and node.name == "to_dict"
        for node in cls.body)


def unreached(
    sources: Optional[Iterable[Tuple[Optional[str], ast.Module]]] = None,
) -> List[str]:
    """``module::name`` of every public definition nothing else names,
    ``module::Class.member`` of every public member nothing else reaches,
    and ``module::Class.field`` of every dataclass field nothing reads.

    ``sources`` defaults to the parsed roots (:func:`_sources`).
    """
    used: Counter = Counter()
    member_used: Counter = Counter()
    field_used: Counter = Counter()
    definitions = []
    members = []
    fields = []
    bases: Dict[str, List[str]] = {}
    for module, tree in _sources() if sources is None else sources:
        names = _used_names(tree)
        strings = _strings(tree)
        used.update(names)
        member_used.update(names + strings)
        field_used.update(_loads(tree) + strings)
        if module is not None:
            mirrored = _mirrored_fields(tree)
            member_used.update(mirrored)
            field_used.update(mirrored)
            definitions.extend(
                (f"{module}::{name}", name, node)
                for name, node in _public_definitions(tree)
            )
            members.extend(
                (f"{module}::{key}", node)
                for key, node in _public_members(tree)
            )
            fields.extend((module, cls, name) for cls, name in _fields(tree))
            bases.update((cls.name, _base_names(cls))
                         for cls in ast.walk(tree)
                         if isinstance(cls, ast.ClassDef))
    flagged = [key for key, name, node in definitions
               if used[name] - _used_names(node)[name] <= 0]
    flagged.extend(key for key, node in members
                   if member_used[node.name]
                   - _member_uses(node)[node.name] <= 0)
    codecs = _codecs(bases)
    flagged.extend(f"{module}::{cls.name}.{name}"
                   for module, cls, name in fields
                   if not _serialised(cls, codecs)
                   and field_used[name] - _init_loads(cls)[name] <= 0)
    return sorted(flagged)


def test_every_public_name_is_reached() -> None:
    stray = [key for key in unreached() if key not in ALLOWLIST]
    assert not stray, (
        "public names that nothing outside tests reaches (delete them, "
        f"or allowlist them with a reason): {stray}"
    )


def stale(allowlist: Dict[str, str], flagged: Iterable[str]) -> List[str]:
    """Allowlist entries that are reached or name nothing that exists."""
    return sorted(set(allowlist) - set(flagged))


def test_the_allowlist_is_not_stale() -> None:
    entries = stale(ALLOWLIST, unreached())
    assert not entries, (
        "allowlist entries that are now reached or no longer exist: "
        f"{entries}"
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


PROBE = "class Probe:\n    def helper(self):\n        pass\n"
#: A root file that reaches the class but none of its members.
MADE = "from repro.a import Probe\nprobe = Probe()\n"


def test_a_member_nothing_uses_is_flagged() -> None:
    assert _unreached_in({"a.py": PROBE, None: MADE}) == [
        "a.py::Probe.helper"]


def test_an_attribute_call_on_an_instance_reaches_the_member() -> None:
    assert _unreached_in({"a.py": PROBE,
                          None: MADE + "probe.helper()\n"}) == []


def test_a_derived_keys_string_reaches_the_member() -> None:
    assert _unreached_in({
        "a.py": PROBE,
        "b.py": "class _Report:\n    derived_keys = ('helper',)\n",
        None: MADE,
    }) == []


#: A package dataclass with a ``helper`` field that mirrors another
#: object's attributes of the same names.
MIRROR = ("from dataclasses import dataclass, fields\n"
          "@dataclass(frozen=True)\n"
          "class _Summary:\n    helper: bool\n"
          "    @classmethod\n    def of(cls, probe):\n"
          "        return cls(**{f.name: getattr(probe, f.name)\n"
          "                      for f in fields(cls)})\n")


@pytest.mark.parametrize("module, flagged", [
    ("b.py", []),
    (None, ["a.py::Probe.helper"]),
], ids=["in-the-package", "outside-the-package"])
def test_a_mirrored_field_of_the_same_name_reaches_the_member(
        module: Optional[str], flagged: List[str]) -> None:
    assert _unreached_in({"a.py": PROBE, module: MIRROR,
                          "c.py": "from repro.a import Probe\n"}) == flagged


def test_a_same_named_field_of_an_unrelated_dataclass_does_not_reach(
) -> None:
    unrelated = ("from dataclasses import dataclass\n"
                 "@dataclass(frozen=True)\n"
                 "class _Result:\n    helper: int\n")
    # the unread field is flagged by the field rule in its own right
    assert _unreached_in({"a.py": PROBE, "b.py": unrelated,
                          None: MADE}) == ["a.py::Probe.helper",
                                           "b.py::_Result.helper"]


def test_a_member_annotation_of_a_plain_class_does_not_reach() -> None:
    assert _unreached_in({
        "a.py": PROBE,
        "b.py": "class _Plain:\n    helper: bool\n",
        None: MADE,
    }) == ["a.py::Probe.helper"]


def test_a_self_call_inside_its_own_body_does_not_reach() -> None:
    assert _unreached_in({
        "a.py": ("class Probe:\n    def helper(self, n):\n"
                 "        return self.helper(n - 1) if n else 0\n"),
        None: MADE,
    }) == ["a.py::Probe.helper"]


def test_string_tables_do_not_reach_a_member() -> None:
    assert _unreached_in({
        "a.py": PROBE,
        "__init__.py": (
            "__all__ = ['helper']\n"
            "__all__ += ['helper']\n"
            "__all__, __getattr__, __dir__ = lazy_exports(\n"
            "    __name__, {'repro.a': ('helper',)})\n"),
        None: MADE,
    }) == ["a.py::Probe.helper"]


def test_private_and_dunder_members_are_never_flagged() -> None:
    assert _unreached_in({
        "a.py": ("class Probe:\n"
                 "    def __init__(self):\n        pass\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def _helper(self):\n        pass\n"),
        None: MADE,
    }) == []


def test_members_of_private_classes_are_not_checked() -> None:
    assert _unreached_in({
        "a.py": "class _Probe:\n    def helper(self):\n        pass\n",
    }) == []


def test_a_reached_member_on_the_allowlist_is_stale() -> None:
    flagged = _unreached_in({"a.py": PROBE,
                             None: MADE + "probe.helper()\n"})
    assert stale({"a.py::Probe.helper": "an oracle"}, flagged) == [
        "a.py::Probe.helper"]


def test_a_flagged_member_on_the_allowlist_is_not_stale() -> None:
    flagged = _unreached_in({"a.py": PROBE, None: MADE})
    assert stale({"a.py::Probe.helper": "an oracle"}, flagged) == []


#: A package dataclass with one field, ``n``, that nothing reads yet.
RECORD = ("from dataclasses import dataclass\n"
          "@dataclass\n"
          "class Record:\n    n: int\n")
#: A root file that builds a record, by keyword, and reads none of it.
BUILT = "from repro.a import Record\nrecord = Record(n=1)\n"


def test_a_field_nothing_reads_is_flagged() -> None:
    assert _unreached_in({"a.py": RECORD,
                          None: "from repro.a import Record\n"}) == [
        "a.py::Record.n"]


@pytest.mark.parametrize("read", [
    "print(record.n)\n",
    "record.n = record.n + 1\n",
], ids=["load", "load-in-a-store"])
def test_a_load_outside_the_class_init_reaches_the_field(read: str) -> None:
    assert _unreached_in({"a.py": RECORD, None: BUILT + read}) == []


def test_a_load_in_a_method_of_the_class_reaches_the_field() -> None:
    assert _unreached_in({
        "a.py": RECORD + ("    def double(self):\n"
                          "        return 2 * self.n\n"),
        None: BUILT + "record.double()\n",
    }) == []


@pytest.mark.parametrize("method", ["__init__", "__post_init__"])
def test_a_load_in_the_class_init_does_not_reach_the_field(
        method: str) -> None:
    assert _unreached_in({
        "a.py": RECORD + (f"    def {method}(self):\n"
                          "        assert self.n >= 0\n"),
        None: BUILT,
    }) == ["a.py::Record.n"]


def test_keyword_construction_does_not_reach_the_field() -> None:
    assert _unreached_in({"a.py": RECORD, None: BUILT}) == [
        "a.py::Record.n"]


def test_an_augmented_store_does_not_reach_the_field() -> None:
    assert _unreached_in({"a.py": RECORD,
                          None: BUILT + "record.n += 1\n"}) == [
        "a.py::Record.n"]


@pytest.mark.parametrize("base", ["Codec", "spec.ReportCodec"],
                         ids=["direct", "through-a-subclass"])
def test_the_fields_of_a_codec_subclass_are_reached(base: str) -> None:
    assert _unreached_in({
        "spec.py": ("class Codec:\n    pass\n"
                    "class ReportCodec(Codec):\n    pass\n"),
        "a.py": ("from dataclasses import dataclass\n"
                 "@dataclass\n"
                 f"class Record({base}):\n    n: int\n"),
        None: BUILT + "from repro.spec import Codec, ReportCodec\n",
    }) == []


def test_the_fields_of_a_class_with_to_dict_are_reached() -> None:
    assert _unreached_in({
        "a.py": RECORD + ("    def to_dict(self):\n"
                          "        return {'n': self.n}\n"),
        None: BUILT + "record.to_dict()\n",
    }) == []


def test_a_mirrored_field_is_reached() -> None:
    assert _unreached_in({
        "a.py": MIRROR,
        None: "from repro.a import _Summary\n_Summary.of(object())\n",
    }) == []


def test_a_string_constant_reaches_the_field() -> None:
    assert _unreached_in({"a.py": RECORD,
                          None: BUILT + "getattr(record, 'n')\n"}) == []


def test_private_fields_are_never_flagged_private_classes_are_checked(
) -> None:
    assert _unreached_in({
        "a.py": ("from dataclasses import dataclass, field\n"
                 "@dataclass\n"
                 "class _State:\n"
                 "    n: int = 0\n"
                 "    _cache: dict = field(default_factory=dict)\n"
                 "def step(st):\n    st.n += 1\n"),
        None: "from repro.a import step\n",
    }) == ["a.py::_State.n"]


def test_an_annotation_of_a_plain_class_is_not_a_field() -> None:
    assert _unreached_in({
        "a.py": "class Plain:\n    n: int\n",
        None: "from repro.a import Plain\n",
    }) == []


def test_a_read_field_on_the_allowlist_is_stale() -> None:
    flagged = _unreached_in({"a.py": RECORD,
                             None: BUILT + "print(record.n)\n"})
    assert stale({"a.py::Record.n": "an oracle"}, flagged) == [
        "a.py::Record.n"]


def test_an_unread_field_on_the_allowlist_is_not_stale() -> None:
    flagged = _unreached_in({"a.py": RECORD, None: BUILT})
    assert stale({"a.py::Record.n": "an oracle"}, flagged) == []
