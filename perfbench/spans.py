"""In-memory spans around the calls the benchmark makes into `waring`.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in the same list, or -1, and `op` is the id of the benchmark
operation it belongs to.  Spans stay in memory and are written once, when the
run ends.  Spans are recorded only around the benchmark's own calls into the
public functions of each module; spans inside the program are a later change.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import namedtuple
from types import SimpleNamespace

# The modules of src/waring that do work; `errors` defines exceptions only.
LAYERS = ("combinatorics", "tensor_core", "quantics", "rank_oracle", "decompose", "montecarlo", "cli")

Span = namedtuple("Span", "name start end parent op")


class Tracer:
    """Records spans; `op` is set by the harness before each operation."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = Span(name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON rows [name, start, end, parent, op]."""
        with open(path, "w") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)


class NullTracer:
    """Stand-in used with tracing off: records nothing."""

    op = -1

    def span(self, name: str):
        return contextlib.nullcontext()


def load_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace `api.<layer>.<function>` over the public callables of each layer.

    With a tracer every callable is wrapped so that each call records a span
    named `<layer>.<function>`; without one the namespace holds the
    functions themselves, so untraced runs pay nothing.
    """
    layers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"waring.{layer}")
        members = {}
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members[name] = obj if tracer is None else tracer.wrap(f"{layer}.{name}", obj)
        layers[layer] = SimpleNamespace(**members)
    return SimpleNamespace(**layers)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(index)
    out = []
    for index, s in enumerate(spans):
        inside = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(index, ())
        ]
        out.append((s.end - s.start) - covered((a, b) for a, b in inside if b > a))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
