"""Span tracing of mulingua's layers, from outside the package.

The tracer wraps every public module-level function of each layer's
modules (and the private term evaluator, which is where term evaluation
happens) and rebinds each name wherever a mulingua module or the
benchmark holds it.  Each wrapped call records a span: name, parent,
start and end.  A layer's self time is its spans' time minus the time
of the child spans they cover.  Direct recursion into the function that
is already on top of the span stack is counted as a call but opens no
span, so recursive walks cost one span per entry.

Spans live in memory while the run lasts and are written out by
``write_spans`` at the end.  Nothing is wrapped until ``install`` is
called, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = {
    "sexpr": ("mulingua.sexpr",),
    "dsl": ("mulingua.dsl",),
    "kernel": ("mulingua.kernel", "mulingua.logic"),
    "semantics": ("mulingua.semantics",),
    "proofs": ("mulingua.proofs",),
    "voiceleading": ("mulingua.voiceleading",),
    "musiclib": ("mulingua.musiclib",),
    "cli": ("mulingua.cli",),
}

# Private entry points traced under a public name: term evaluation runs
# through ``_eval`` when a formula evaluates its terms.  A name that no
# longer exists is skipped.
ALIASES = {
    ("mulingua.semantics", "_eval"): "semantics.eval_term",
    ("mulingua.dsl", "_load_declaration"): "dsl.load_declaration",
}

# What a call adds to its function's item count: bytes of source text
# read, automorphisms found.
ITEM_COUNTS = {
    "sexpr.parse_sexprs": lambda args, result: len(args[0].encode("utf-8")),
    "voiceleading.enumerate_automorphisms": lambda args, result: len(result),
}

MAX_KEPT_SPANS = 200_000


class Tracer:
    """Collects spans and per-function totals for the wrapped layers."""

    def __init__(self) -> None:
        # stack entries: [key, span id, start, child seconds]
        self.stack: list[list] = []
        # key -> [calls, inclusive seconds, self seconds, items]; items
        # are values yielded by a generator, or as ITEM_COUNTS says.
        # Inclusive seconds count only spans with no open ancestor of
        # the same key, so nested calls are not counted twice.
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # layer -> seconds with at least one span of the layer open
        self.layer_inclusive: dict[str, float] = {}
        self._open_count: dict[str, int] = {}
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, key: str) -> list:
        counts = self._open_count
        counts[key] = counts.get(key, 0) + 1
        layer = key.split(".", 1)[0]
        counts[layer] = counts.get(layer, 0) + 1
        frame = [key, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        self.stack.pop()
        key, span_id, start, child = frame
        duration = end - start
        stat = self.stats[key]
        stat[2] += duration - child
        counts = self._open_count
        counts[key] -= 1
        if counts[key] == 0:
            stat[1] += duration
        layer = key.split(".", 1)[0]
        counts[layer] -= 1
        if counts[layer] == 0:
            self.layer_inclusive[layer] = (
                self.layer_inclusive.get(layer, 0.0) + duration)
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            parent_id = 0
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent_id, key, start, end))
        else:
            self.dropped_spans += 1

    @contextlib.contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stat[0] += 1
        frame = self._open(key)
        try:
            yield
        finally:
            self._close(frame, time.perf_counter())

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats[0] += 1
                if tracer.stack and tracer.stack[-1][0] == key:
                    return fn(*args, **kwargs)
                return tracer._traced_generator(key, fn(*args, **kwargs))
            return gen_wrapper

        count = ITEM_COUNTS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if tracer.stack and tracer.stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, time.perf_counter())
            if count is not None:
                stats[3] += count(args, result)
            return result
        return wrapper

    def _traced_generator(self, key: str, inner):
        # Each resumption of the generator is one span, so time spent by
        # the consumer between items is not charged to the layer.
        stats = self.stats[key]
        while True:
            frame = self._open(key)
            try:
                item = next(inner)
            except StopIteration:
                self._close(frame, time.perf_counter())
                return
            except BaseException:
                self._close(frame, time.perf_counter())
                raise
            self._close(frame, time.perf_counter())
            stats[3] += 1
            yield item

    def install(self) -> "Tracer":
        """Wrap every layer's public functions and rebind them in all
        loaded mulingua modules.  The benchmark calls mulingua through
        module attributes, so this covers its calls too."""
        targets: dict[int, tuple[object, object]] = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                module = sys.modules.get(modname)
                if module is None:
                    continue
                for name, fn in vars(module).items():
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != modname):
                        continue
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for (modname, name), key in ALIASES.items():
            fn = getattr(sys.modules.get(modname), name, None)
            if inspect.isfunction(fn):
                targets[id(fn)] = (fn, self._wrap(key, fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "mulingua" or n.startswith("mulingua.")]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])
        return self

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patches):
            setattr(module, name, value)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def function_seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0, 0])[1]

    def function_self_seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0, 0])[2]

    def function_calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0, 0])[0]

    def function_items(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0, 0])[3]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer (the first dotted part)."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for key, (calls, _, self_s, _) in self.stats.items():
            layer = key.split(".", 1)[0]
            if layer in totals:
                totals[layer]["calls"] += calls
                totals[layer]["self_s"] += self_s
        return totals

    def dump_stats(self) -> dict:
        return {"stats": self.stats, "dropped_spans": self.dropped_spans,
                "layer_inclusive": self.layer_inclusive}

    def merge_stats(self, dumped: dict) -> None:
        for key, values in dumped["stats"].items():
            mine = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                mine[i] += v
        self.dropped_spans += dumped["dropped_spans"]
        for layer, seconds in dumped["layer_inclusive"].items():
            self.layer_inclusive[layer] = (
                self.layer_inclusive.get(layer, 0.0) + seconds)

    def write_spans(self, path, append: bool = False) -> None:
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for span_id, parent_id, key, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent_id, "name": key,
                     "start": start, "end": end}) + "\n")
