"""Spans around calls into socaut, recorded from outside the package.

``instrument`` replaces each function listed in ``layers.TRACED`` with a
wrapper, at its defining module and under every name another socaut module
bound it to, and returns a function that puts the originals back.  A wrapper
records a span only while an op is open (``Tracer.op``), so checks the
benchmark makes between ops are not traced.  Spans are reduced to per-function
call counts, self times and byte counts when they close; the op's own span
takes the self time of the benchmark code that runs inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

from . import layers
from .stats import self_time

BENCH_KEY = ("bench", "op")


class Tracer:
    """Per-function totals of calls, self seconds and bytes over traced ops."""

    def __init__(self) -> None:
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.nbytes: dict[tuple[str, str], int] = defaultdict(int)
        self.op_wall = 0.0
        self.ops = 0
        self._stack: list[list] = []  # open spans: [key, start, child intervals]

    @contextlib.contextmanager
    def op(self):
        """Open the root span of one op; its duration counts as traced wall time."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        root = [BENCH_KEY, perf_counter(), []]
        self._stack.append(root)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.calls[BENCH_KEY] += 1
            self.self_s[BENCH_KEY] += self_time(root[1], end, root[2])
            self.op_wall += end - root[1]
            self.ops += 1

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        key = (layer, name)
        stack = self._stack
        count_in = name in layers.BYTES_IN
        count_out = name in layers.BYTES_OUT
        is_main = layer == "cli" and name == "main"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span_key = key
            if is_main:
                argv = args[0] if args else kwargs.get("argv")
                span_key = (layer, f"main.{argv[0]}" if argv else "main")
            span = [span_key, perf_counter(), []]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][2].append((span[1], end))
                self.calls[span_key] += 1
                self.self_s[span_key] += self_time(span[1], end, span[2])
            if count_in:
                self.nbytes[span_key] += len(args[0] if args else kwargs["text"])
            elif count_out:
                self.nbytes[span_key] += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced socaut function; return the function that undoes it."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for layer, (module_name, names) in layers.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patch(cls, meth, classmethod(tracer.wrap(layer, name, raw.__func__)))
                else:
                    patch(cls, meth, tracer.wrap(layer, name, raw))
                continue
            original = getattr(module, name)
            wrapper = tracer.wrap(layer, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "socaut" and not mod_name.startswith("socaut."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, attr, wrapper)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
