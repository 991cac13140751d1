"""Per-layer tracing of tropgw from outside the package.

``install()`` replaces every public function of each tropgw module (and
the public methods of its classes, plus the ``GWElement`` arithmetic
operators) by a wrapper that counts calls and times a span.  Modules bind
each other's functions at import (``from .curves import triangle_mult``),
so every module attribute that is the original function is rebound to the
same wrapper.

Spans nest on a stack; a layer's self time is the duration of its spans
minus the time covered by their child spans.  Spans are aggregated as they
close instead of being kept, because a traced batch opens millions.
Generator functions (``weighted_partitions``) yield after their span has
closed, so for them only the calls are counted; the time spent iterating
falls to the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("gw", "lattice", "curves", "paths", "ch", "floors", "templates", "cli")
GW_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
# What is summed over the results of these functions: the number of diagrams
# or templates enumerated, and how many marking counts were nonzero.
RESULT_MEASURES = {
    "floors.enumerate_diagrams": len,
    "templates.enumerate_templates": len,
    "floors.count_markings": bool,
}


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.results: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._memo_snapshot = None

    def _wrap(self, fn, layer: str, name: str):
        stack, calls, results, self_s, inclusive_s = (
            self._stack, self.calls, self.results, self.self_s, self.inclusive_s
        )
        measure = RESULT_MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                inclusive_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if measure is not None:
                results[name] += measure(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions, in all the places they are bound."""
        modules = {layer: importlib.import_module(f"tropgw.{layer}") for layer in LAYERS}
        self._memo_snapshot = modules["ch"].memo_snapshot
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_")
                        operator = obj.__name__ == "GWElement" and meth in GW_OPERATORS
                        if inspect.isfunction(fn) and (public or operator):
                            if id(fn) not in wrappers:
                                name = f"{layer}.{obj.__name__}.{fn.__name__}"
                                wrappers[id(fn)] = self._wrap(fn, layer, name)
                            setattr(obj, meth, wrappers[id(fn)])
        for module in [*modules.values(), importlib.import_module("tropgw")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(module, attr, wrappers[id(obj)])

    def counters(self) -> dict:
        """Per-layer self times and work counters of everything traced so far."""
        from tropgw import gw

        calls = self.calls
        square_free = gw.square_free.cache_info()
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "gw.mul_calls": calls["gw.GWElement.__mul__"],
            "gw.add_calls": calls["gw.GWElement.__add__"],
            "gw.equal_calls": calls["gw.gw_equal"],
            "gw.square_free_hits": square_free.hits,
            "gw.square_free_misses": square_free.misses,
            "gw.prime_factors_misses": gw.prime_factors.cache_info().misses,
            "gw.json_decode_calls": calls["gw.gw_from_json"],
            "gw.json_encode_calls": calls["gw.gw_to_json"],
            "lattice.calls": sum(n for k, n in calls.items() if k.startswith("lattice.")),
            "curves.triangle_mult_calls": calls["curves.triangle_mult"],
            "paths.count_calls": calls["paths.count_lattice_path"],
            "ch.memo_entries": len(self._memo_snapshot()),
            "ch.seq_binom_calls": calls["ch.seq_binom"],
            "ch.partition_calls": calls["ch.weighted_partitions"],
            "floors.diagrams": self.results["floors.enumerate_diagrams"],
            "floors.marking_calls": calls["floors.count_markings"],
            "floors.marking_nonzero": self.results["floors.count_markings"],
            "floors.interleaving_calls": calls["floors.count_interleavings"],
            "floors.interleaving_s": self.inclusive_s["floors.count_interleavings"],
            "templates.templates": self.results["templates.enumerate_templates"],
            "templates.placement_calls": calls["templates.template_placement_data"],
        })
        return out
