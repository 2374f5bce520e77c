"""In-memory spans, self times and work counts around wrapped koszulity calls.

The tracer lives in the benchmark, outside the program: `instrument` swaps
the public functions of each koszulity module (and a few hot methods) for
wrappers that open a span, and rebinds every `koszulity.*` name that refers
to the original, so calls through `from .x import f` aliases are seen too.
`restore` puts the originals back.

A span's self time is its duration minus the durations of its direct child
spans, so self times add up to the outermost span. A name's total time sums
only its outermost spans, so a recursive call is not counted twice. Time
spent computing work counts is taken off the tracer's clock, so it lands in
no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The package's modules, one layer each.
LAYERS = ("cli", "verify", "koszul", "hereditary", "truncated", "resolution",
          "modules", "frobenius", "algebra", "presentation", "linalg")

# Public functions too small and too frequent to wrap: their wrapper would
# cost more than their body, and no per-layer metric asks for them.
UNWRAPPED = {"linalg.frac"}


class Tracer:
    """Aggregates spans as they close: calls, self and total seconds per name."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.paused_s = 0.0  # bookkeeping seconds kept out of every span
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._open = Counter()  # open spans per name
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.hom_pairs = {}  # (id, id) -> (domain, codomain), kept alive

    def now(self) -> float:
        return self._clock() - self.paused_s

    @contextmanager
    def paused(self):
        """Keep the enclosed bookkeeping out of every span."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.paused_s += self._clock() - t0

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self.now(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.now() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        self._open[name] -= 1
        if not self._open[name]:
            # Only the outermost of nested same-name spans adds to the total.
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def layer_self_s(self) -> dict:
        """Self seconds per layer: the sum over that layer's span names."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out


def traced(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap fn in a span; before(args) and after(state, args, result) count work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = None
        if before is not None:
            with tracer.paused():
                state = before(tracer, args)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            with tracer.paused():
                after(tracer, state, args, result)
        return result

    return wrapper


# -- work counts -------------------------------------------------------------

def _rref_before(tracer, args):
    m = args[0]
    tracer.counts["linalg.rref.cells"] += m.rows * m.cols
    tracer.counts["linalg.rref.nnz"] += sum(1 for row in m.data for x in row if x)


def _extend_before(tracer, args):
    return len(args[0].terms)


def _extend_after(tracer, n_before, args, result):
    res = args[0]
    tracer.counts["resolution.proj_rank_total"] += sum(
        fp.rank for fp in res.terms[n_before:])


def _hom_space_before(tracer, args):
    m, n = args[0], args[1]
    key = (id(m), id(n))
    if key in tracer.hom_pairs:
        tracer.counts["modules.hom_space.repeats"] += 1
    else:
        # Both objects stay referenced while they are keys, so no id is reused.
        tracer.hom_pairs[key] = (m, n)


def _is_isomorphic_after(tracer, state, args, result):
    if result.certified:
        tracer.counts["modules.is_isomorphic.certified"] += 1


HOOKS = {
    "linalg.rref": (_rref_before, None),
    "resolution.extend": (_extend_before, _extend_after),
    "modules.hom_space": (_hom_space_before, None),
    "modules.is_isomorphic": (None, _is_isomorphic_after),
}

# (module, class, method) -> span name, for methods the metrics ask for.
METHODS = {
    ("linalg", "Matrix", "rref"): "linalg.rref",
    ("linalg", "Matrix", "__mul__"): "linalg.matmul",
    ("resolution", "MinimalResolution", "extend"): "resolution.extend",
    ("resolution", "CocycleLift", "ensure"): "resolution.cocycle_lift",
    ("truncated", "TruncatedGradedAlgebra", "check"): "truncated.check",
}


def public_functions(module):
    """Public functions defined in module itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def instrument(tracer: Tracer):
    """Wrap every layer's public functions and the METHODS; returns restore()."""
    undo = []
    wrapped = {}  # original function -> wrapper
    for layer in LAYERS:
        module = importlib.import_module(f"koszulity.{layer}")
        for name, fn in public_functions(module).items():
            span = f"{layer}.{name}"
            if span not in UNWRAPPED:
                wrapped[fn] = traced(tracer, span, fn, *HOOKS.get(span, (None, None)))
    for namespace in [m for n, m in list(sys.modules.items())
                      if n == "koszulity" or n.startswith("koszulity.")]:
        for attr, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrapped:
                undo.append((namespace, attr, value))
                setattr(namespace, attr, wrapped[value])
    for (layer, cls_name, meth), span in METHODS.items():
        cls = getattr(importlib.import_module(f"koszulity.{layer}"), cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, traced(tracer, span, original,
                                  *HOOKS.get(span, (None, None))))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
