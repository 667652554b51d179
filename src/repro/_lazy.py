"""Lazy package exports (PEP 562).

Every package ``__init__`` of :mod:`repro` declares its public names
through :func:`lazy_exports` instead of importing its submodules.  A
name is imported from its defining module on first attribute access
and then cached in the package namespace, so ``import repro.errors``
pays for :mod:`repro.errors` alone and each CLI subcommand loads only
the modules it runs.  Modules inside :mod:`repro` import the leaf module
that defines a name, never a package root (``docs/ARCHITECTURE.md``,
"Import rule").
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a lazily exporting package.

    Args:
        package: the package's ``__name__``.
        exports: defining module (absolute dotted name) -> the public
            names the package re-exports from it.

    Returns:
        The package's ``__all__`` (names in declaration order) and the
        module-level ``__getattr__``/``__dir__`` hooks.  An attribute
        that is not an export but names a submodule imports that
        submodule, as an eager ``__init__`` would have made it available.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif importlib.util.find_spec(f"{package}.{name}") is not None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            # repro-lint: allow[RL005] PEP 562 requires a module __getattr__ to raise AttributeError
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
