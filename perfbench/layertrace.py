"""In-memory layer tracer for the traced benchmark run.

The package is not instrumented. Instead ``Tracer.install`` imports the
``artifact`` modules one at a time, in dependency order, and replaces
public functions on the module that defines them before any module that
imports them is loaded. The entry points then run unchanged while their
calls into each layer go through a timing wrapper.

Time is kept as self time: a wrapped call's duration minus the time of
wrapped calls nested inside it, so the layers add up to the entry's
duration. Spans are recorded at frame, family and script granularity
only (plus one per entry call). Finer calls, such as one property check
or one compiled checker call, only add to their layer's totals, which
keeps the overhead small next to the bridge's ~24M closure calls.

A frame or family span runs from the moment the entry point receives the
item until it asks for the next one, so its self time is the entry's own
per-item work (its loop and bookkeeping, or in the bridge the inline
formula-level closures). An entry names the layer that time belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

# (module, function, layer, kind, boundary). Grouped by module in
# dependency order: a wrapper only reaches callers imported after it.
# kind: "call" times each call; "span" also records a span; "iter" times
# each item drawn from the returned iterator and opens a boundary span
# around the caller's work on it; "item" does the same for a function
# returning one item per call; "compiler" wraps the functions it returns.
_WRAPS = (
    ("formula", "is_tautology", "formula.tautology", "call", None),
    ("frame", "check_property", "frame.property", "call", None),
    ("frame", "sample_frame", "frame.gen", "item", "frame"),
    ("model", "check_km_axiom", "model.event_check", "call", None),
    ("model", "check_km_axiom_via_formulas", "model.formula_check", "call", None),
    ("schema", "compile_schema_checker", "schema.validity", "compiler", None),
    ("worlds", "enumerate_families", "worlds.gen", "iter", "family"),
    ("worlds", "generate_family", "worlds.gen", "item", "family"),
    ("worlds", "check_lemma_k7s", "worlds.lemma", "call", None),
    ("worlds", "check_lemma_k9s", "worlds.lemma", "call", None),
    ("proofkit", "check_script", "proofkit.script", "span", None),
    ("proofkit", "check_line", "proofkit.line", "call", None),
)

_DONE = object()


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def entry(self, name, item_layer="cli.self"):
        return nullcontext()

    def iterate(self, items, layer, boundary):
        return items


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []  # [name, parent index, start, end]
        # call nodes are [child_s]; span nodes [child_s, start, layer, index]
        self._stack: list[list] = []
        self._open_item: list | None = None
        self._item_layer = "cli.self"
        self._in_entry = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Import ``artifact`` with wrappers in place. Must run before any
        other import of an ``artifact`` submodule."""
        wrappers = {"call": self._wrap_call, "span": self._wrap_span,
                    "iter": self._wrap_iter, "item": self._wrap_item,
                    "compiler": self._wrap_compiler}
        for module_name, name, layer, kind, boundary in _WRAPS:
            module = importlib.import_module(f"artifact.{module_name}")
            fn = getattr(module, name, None)
            if fn is None:  # removed by a later change: its time lands in cli.self
                continue
            setattr(module, name, wrappers[kind](fn, layer, boundary))
        importlib.import_module("artifact.cli")

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = next((node[3] for node in reversed(self._stack) if len(node) > 1), None)
        start = perf_counter()
        self.spans.append([name, parent, start, None])
        node = [0.0, start, layer, len(self.spans) - 1]
        self._stack.append(node)
        return node

    def _close(self, node: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not node:
            raise RuntimeError("tracer stack out of order")
        elapsed = end - node[1]
        self.self_s[node[2]] += elapsed - node[0]
        self.spans[node[3]][3] = end
        if self._stack:
            self._stack[-1][0] += elapsed

    def _end_item(self) -> None:
        if self._open_item is not None:
            node, self._open_item = self._open_item, None
            self._close(node)

    def _begin_item(self, boundary: str) -> None:
        if self._in_entry:
            self.items[boundary] += 1
            self._open_item = self._open(boundary, self._item_layer)

    @contextmanager
    def entry(self, name: str, item_layer: str = "cli.self"):
        """Span around one call of an entry point. ``item_layer`` receives
        the self time of the frame or family spans inside it."""
        self._item_layer, self._in_entry = item_layer, True
        node = self._open(name, "cli.self")
        try:
            yield
        finally:
            self._end_item()
            self._in_entry = False
            self._close(node)

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, layer):
        self_s, calls, stack = self.self_s, self.calls, self._stack

        def timed(*args, **kwargs):
            if not self._in_entry:  # set-up or a check between passes
                return fn(*args, **kwargs)
            node = [0.0]
            stack.append(node)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - node[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def _wrap_call(self, fn, layer, boundary):
        return functools.wraps(fn)(self._timed(fn, layer))

    def _wrap_span(self, fn, layer, boundary):
        name = fn.__name__

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self._in_entry:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            node = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(node)

        return spanned

    def _wrap_item(self, fn, layer, boundary):
        timed = self._timed(fn, layer)

        @functools.wraps(fn)
        def item(*args, **kwargs):
            self._end_item()
            result = timed(*args, **kwargs)
            self._begin_item(boundary)
            return result

        return item

    def _wrap_iter(self, fn, layer, boundary):
        @functools.wraps(fn)
        def iterating(*args, **kwargs):
            return self.iterate(fn(*args, **kwargs), layer, boundary)

        return iterating

    def _wrap_compiler(self, fn, layer, boundary):
        @functools.wraps(fn)
        def compiler(*args, **kwargs):
            return self._timed(fn(*args, **kwargs), layer)

        return compiler

    def iterate(self, items, layer: str, boundary: str):
        """Yield from ``items``, timing each draw as ``layer`` and opening
        a ``boundary`` span around the consumer's work on each item."""
        it = iter(items)
        draw = self._timed(lambda: next(it, _DONE), layer)
        while True:
            self._end_item()
            item = draw()
            if item is _DONE:
                if self._in_entry:
                    self.calls[layer] -= 1  # the final, empty draw
                return
            self._begin_item(boundary)
            yield item

    # -- output ------------------------------------------------------------------

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans with their start and end relative to the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, round(start - origin, 9), round(end - origin, 9)]
                for name, parent, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**header, "span_fields": ["name", "parent", "start_s", "end_s"],
                       "spans": rows}, handle)
