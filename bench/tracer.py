"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each public function of the pcgroups layer
modules with a timing wrapper at every place the package binds it, e.g.
``pcgroups.classify.find_induced_p3`` and ``pcgroups.stallings.normal_form``,
so a call from one layer into another becomes a child span.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.  Spans live in
memory as (name, start_ns, end_ns, parent, command) and are summarised, and
written out, when the run ends.  A function a later version removes simply
records no spans.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("cli", "classify", "graphs", "words", "visible", "stallings", "zf2")

# Methods that do a layer's work but are not module-level functions.
METHODS = {
    ("graphs", "SimpleGraph"): ("__init__",),
    ("stallings", "StallingsGraph"): ("intersect", "member"),
}


def _sequence_letters(ws):
    return sum(len(w) for w in ws) if isinstance(ws, (list, tuple)) else 0


# Work counts taken at a span boundary: name -> f(args, result) -> {count: n}.
COUNTERS = {
    "words.parse_word": lambda a, r: {"letters": len(r)},
    "words.normal_form": lambda a, r: {"letters_in": len(a[0]), "letters_out": len(r)},
    "stallings.from_generators": lambda a, r: {"letters_in": _sequence_letters(a[0])},
    "stallings.intersect": lambda a, r: {"states_out": r.num_states},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.command)
                stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer at each binding site."""
        package = importlib.import_module("pcgroups")
        modules = [package] + [importlib.import_module(f"pcgroups.{m}") for m in LAYERS]
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pcgroups.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"pcgroups.{layer}"), cls_name, None)
            for method in methods:
                fn = vars(cls).get(method) if cls is not None else None
                if isinstance(fn, types.FunctionType):
                    label = cls_name if method == "__init__" else method
                    self._undo.append((cls, method, fn))
                    setattr(cls, method, self.wrap(f"{layer}.{label}", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: calls, inclusive ns of outermost spans, self ns."""
        spans = self.spans
        calls: dict = defaultdict(int)
        total: dict = defaultdict(int)
        own: dict = defaultdict(int)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            own[name] += end - start
            if parent >= 0:
                own[spans[parent][0]] -= end - start
            # a span nested in one of the same name is already inside its total
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
        return calls, total, own
