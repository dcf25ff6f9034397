"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the library, every public module-level
function of each ``stirling`` layer (plus ``BigFloat.to_decimal``) and a
few ``mpmath.libmp`` primitives.  Each wrapped call records one span
``(name, start, end, parent)``; a generator function records one span per
``next()``, so only time spent producing items is charged to it.
Primitive calls are counted against the innermost open span.

Spans stay in memory; :func:`summarize` turns them into per-name call
counts and self times (a span's duration minus the durations of its
direct children, which on one thread are nested inside it).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("mpcore", "bernoulli", "series", "constants", "quadrature",
          "oracle", "bounds", "expansions", "cli")

# libmp primitives whose calls are counted
PRIMITIVES = ("mpf_atan", "mpf_log", "mpf_exp", "mpf_div", "mpf_mul",
              "from_rational")

ROOT = "<root>"


class Tracer:
    """Collects spans, call counts and primitive counts while active."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.error_items: dict[str, int] = defaultdict(int)
        self.prims: dict[tuple[str, str], int] = defaultdict(int)
        self.observers: dict[str, object] = {}

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    def innermost(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ROOT

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn):
        """Span-recording wrapper around ``fn`` (generator-aware)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    tracer.items[name] += 1
                    if isinstance(item, Exception):
                        tracer.error_items[name] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def count(self, prim: str, fn):
        """Wrapper counting calls of a primitive against the innermost span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.prims[(tracer.innermost(), prim)] += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-name ``{"spans": n, "self_s": s}`` from ``(name, start, end,
    parent)`` records, where ``parent`` indexes into ``spans`` (-1: none)."""
    out: dict[str, dict[str, float]] = {}
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        duration = end - start
        entry = out.setdefault(name, {"spans": 0, "self_s": 0.0})
        entry["spans"] += 1
        entry["self_s"] += duration
        if parent >= 0:
            parent_name = spans[parent][0]
            out.setdefault(parent_name, {"spans": 0, "self_s": 0.0})["self_s"] -= duration
    return out


def install_primitive_counters(tracer: Tracer) -> None:
    """Replace the counted ``mpmath.libmp`` attributes.  Done before
    ``stirling`` is imported, so names it binds at import see the wrappers."""
    from mpmath import libmp
    for prim in PRIMITIVES:
        setattr(libmp, prim, tracer.count(prim, getattr(libmp, prim)))


def install_spans(tracer: Tracer) -> None:
    """Wrap every public function of each layer module and rebind every
    reference the ``stirling`` package holds to it."""
    import importlib
    import sys

    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"stirling.{layer}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            replacements[id(value)] = tracer.wrap(f"{layer}.{attr}", value)
    mpcore = importlib.import_module("stirling.mpcore")
    to_decimal = mpcore.BigFloat.to_decimal
    mpcore.BigFloat.to_decimal = tracer.wrap("mpcore.BigFloat.to_decimal", to_decimal)

    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "stirling" or modname.startswith("stirling.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
