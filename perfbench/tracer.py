"""Spans and work counters installed around the public API of ``kseq``.

Nothing in ``src/kseq`` knows about tracing: :func:`install` replaces each
public function and public method of the package's modules by a wrapper, in
every namespace that bound the original (``verify`` imports ``primary_root``
by name, for example), and patches methods on their class.

A wrapper records a span (name, start, end, parent, task id).  Spans stay in
memory until :meth:`Tracer.dump`.  A layer's self time is the time covered by
its outermost spans minus the time covered by their children in other layers;
it is accumulated as spans close, so the totals need no second pass.

Hot callees get a counter and no span, because a span per call would make
tracing the cost being measured: ``CharPoly.value``, ``g_k``, ``f_k``, the
``LogValue`` operators and two private per-step kernels of ``transfer``.
Some counts are computed from a call's arguments and result rather than
observed (:data:`COMPUTED_COUNTS`).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "counting", "series", "identities", "transfer", "spectral",
    "asymptotics", "probability", "precision", "verify", "cli",
)

# (module, attribute) -> counter name; observed call counts, no span
COUNTED_FUNCTIONS = {
    ("asymptotics", "g_k"): "asymptotics.gk_evals",
    ("asymptotics", "f_k"): "asymptotics.fk_calls",
    ("transfer", "_mul_z_formal"): "transfer.formal_steps",
}
# (module, class, method) -> counter name
COUNTED_METHODS = {
    ("transfer", "_NumericProduct", "step"): "transfer.numeric_steps",
    **{
        ("precision", "LogValue", name): "precision.logvalue_ops"
        for name in (
            "from_number", "from_log", "is_zero", "to_number", "log",
            "__mul__", "__rmul__", "__truediv__", "__pow__", "__neg__",
            "__add__", "__sub__", "__lt__",
        )
    },
}


def _table_bytes(args, kwargs, result) -> int:
    """Bytes of the big integers in a returned CountTable."""
    return sum((v.bit_length() + 7) // 8 for v in result.values)


def _trial_cells(args, kwargs, result) -> int:
    """Cells simulate() draws: trials x (truncation index + k - 1)."""
    params = args[0] if args else kwargs["params"]
    return result.trials * (result.truncation_index + params.k - 1)


# (module, attribute) -> (counter name, count(args, kwargs, result)); the
# function keeps its span and the count is computed from its return value
COMPUTED_COUNTS = {
    ("counting", "count_constrained"): ("counting.table_bytes", _table_bytes),
    ("probability", "simulate"): ("probability.trial_cells", _trial_cells),
}
# classes whose remaining methods are too hot for spans
UNTRACED_CLASSES = {("spectral", "CharPoly"), ("precision", "LogValue")}
# dunder methods that do real work and so get spans like public methods
TRACED_DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__call__"}

ROOT_SOLVE = "spectral.primary_root"


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, task id)
        self.stack = []          # open spans: [index, name, layer, start, foreign]
        self.self_s = Counter()  # layer -> seconds
        self.inclusive_s = Counter()  # span name -> seconds, outermost calls only
        self.calls = Counter()   # span name -> spans opened
        self.counters = Counter()
        self.task_id = None

    def enter(self, name: str, layer: str):
        index = len(self.spans)
        self.spans.append(None)
        self.calls[name] += 1
        self.stack.append([index, name, layer, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        index, name, layer, start, foreign = self.stack.pop()
        elapsed = end - start
        parent = self.stack[-1] if self.stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else None, self.task_id)
        if parent is not None and parent[2] == layer:
            # nested in its own layer: the parent's span already covers it,
            # but the parent must still discount our children in other layers
            parent[4] += foreign
            return
        self.self_s[layer] += elapsed - foreign
        if parent is not None:
            parent[4] += elapsed
        if not any(frame[1] == name for frame in self.stack):
            self.inclusive_s[name] += elapsed

    def dump(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "task": task}
                ) + "\n")


def _span_wrapper(tracer: Tracer, name: str, layer: str, fn):
    if inspect.isgeneratorfunction(fn):
        # one span per resumption, so the consumer's own work between items
        # is not charged to the generator's layer
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            finally:
                gen.close()

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _count_wrapper(tracer: Tracer, key: str, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return counted


def _computed_count_wrapper(tracer: Tracer, key: str, count, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        counters[key] += count(args, kwargs, result)
        return result

    return counted


def _poly_value_wrapper(tracer: Tracer, fn):
    counters = tracer.counters
    stack = tracer.stack

    @functools.wraps(fn)
    def counted(self, x):
        counters["spectral.poly_evals"] += 1
        if stack and stack[-1][1] == ROOT_SOLVE:
            counters["spectral.root_poly_evals"] += 1
        return fn(self, x)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every kseq module."""
    modules = {layer: importlib.import_module(f"kseq.{layer}") for layer in LAYERS}

    replaced = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                key = COUNTED_FUNCTIONS.get((layer, attr))
                if key is not None:
                    replaced[id(obj)] = _count_wrapper(tracer, key, obj)
                elif not attr.startswith("_") and layer != "precision":
                    wrapper = _span_wrapper(tracer, f"{layer}.{attr}", layer, obj)
                    computed = COMPUTED_COUNTS.get((layer, attr))
                    if computed is not None:
                        wrapper = _computed_count_wrapper(tracer, *computed, wrapper)
                    replaced[id(obj)] = wrapper
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _patch_class(tracer, layer, obj)

    # rebind every name that refers to a wrapped function, wherever imported
    for mod in [sys.modules["kseq"], *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def _patch_class(tracer: Tracer, layer: str, cls) -> None:
    untraced = (layer, cls.__name__) in UNTRACED_CLASSES
    for attr, raw in list(vars(cls).items()):
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if not inspect.isfunction(fn):
            continue
        key = COUNTED_METHODS.get((layer, cls.__name__, attr))
        if key is not None:
            wrapper = _count_wrapper(tracer, key, fn)
        elif (layer, cls.__name__) == ("spectral", "CharPoly") and attr == "value":
            wrapper = _poly_value_wrapper(tracer, fn)
        elif untraced:
            continue
        elif not attr.startswith("_") or attr in TRACED_DUNDERS:
            wrapper = _span_wrapper(tracer, f"{layer}.{cls.__name__}.{attr}", layer, fn)
        else:
            continue
        setattr(cls, attr, staticmethod(wrapper) if static else wrapper)
