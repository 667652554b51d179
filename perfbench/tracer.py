"""Layer timing by wrapping the program's public functions from outside.

The benchmark does not instrument ``src/``: it replaces a layer's
function or method with a timing wrapper before a replay runs.  Each
wrapper is one span on an in-memory stack, so every layer gets

* ``calls``   — how many times the layer was entered (outermost calls
  of the same layer only, so recursion does not double-count);
* ``incl_s``  — time inside the layer, children included;
* ``self_s``  — time inside the layer minus the time its timed children
  took.

``covered_s`` is the time during which at least one *named* layer (any
layer not marked ``root``) was running.  A root layer is an entry point
whose own code is orchestration (``run_campaign``, ``run_stream``); its
self time is reported, but it does not count as attributed.

A target that no longer exists (a later change deleted or renamed it)
is recorded with zero calls instead of failing the replay.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


class LayerStats:
    """Counters of one named layer."""

    __slots__ = ("calls", "incl_s", "self_s", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra: Dict[str, float] = {}


class Tracer:
    """Span stack plus per-layer counters for one replay."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.covered_s = 0.0
        self._stack: List[List[float]] = []  # [start, child_s] per span
        self._named_depth = 0
        self._named_start = 0.0

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def timed(self, layer: str, fn: Callable, root: bool = False,
              on_result: Optional[Callable[[LayerStats, Any], None]] = None
              ) -> Callable:
        """``fn`` wrapped as one span of ``layer``."""
        stats = self.stats(layer)
        stack = self._stack

        def timed(*args, **kwargs):
            if not root:
                if self._named_depth == 0:
                    self._named_start = perf_counter()
                self._named_depth += 1
            stats.active += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                stats.self_s += elapsed - frame[1]
                stats.active -= 1
                if stats.active == 0:
                    stats.calls += 1
                    stats.incl_s += elapsed
                if not root:
                    self._named_depth -= 1
                    if self._named_depth == 0:
                        self.covered_s += end - self._named_start
            if on_result is not None:
                on_result(stats, result)
            return result

        return timed

    def wrap_function(self, module: str, name: str, layer: str, *,
                      root: bool = False,
                      on_result: Optional[Callable] = None) -> bool:
        """Time a module-level function everywhere it was imported.

        Returns ``False`` (the layer reads zero calls) when the target
        does not exist.
        """
        self.stats(layer)
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            return False
        _replace_everywhere(original,
                            self.timed(layer, original, root, on_result))
        return True

    def wrap_method(self, module: str, cls: str, name: str, layer: str, *,
                    root: bool = False,
                    on_result: Optional[Callable] = None) -> bool:
        """Time an instance method of a class."""
        self.stats(layer)
        try:
            owner = getattr(importlib.import_module(module), cls)
            method = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            return False
        setattr(owner, name, self.timed(layer, method, root, on_result))
        return True

    def wrap_factory(self, module: str, name: str, layer: str) -> bool:
        """Time the callables a factory function returns.

        The factory call itself is not timed; each call of the callable
        it hands out is one span of ``layer``.
        """
        self.stats(layer)
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            return False
        tracer = self

        def factory(*args, **kwargs):
            return tracer.timed(layer, original(*args, **kwargs))

        _replace_everywhere(original, factory)
        return True


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every loaded ``repro`` module's reference to ``original``.

    ``from a import f`` copies the function object into the importing
    module, so patching only the defining module would miss those calls.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
