"""Spans around partalg's public functions, recorded from outside the package.

A Tracer rebinds the named functions in every loaded ``partalg`` module
namespace, so ``from .diagrams import compose``-style imports are caught
as well as calls through a module attribute, and replaces the named
``Poly`` and ``EndoMatrix`` methods on their classes.  Each call records
a span (name, start, end, parent) in flat arrays; ``summary`` turns the
spans and the per-call counters into the per-layer metrics.  ``restore``
puts every original object back.

The package itself is not changed: counters inside ``partalg`` are a
separate, later piece of work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from partalg.diagrams import Diagram

# (module, function, span name).  multiply spans are split by the
# coefficient mode of the left factor when they open.
FUNCTIONS = (
    ("partalg.diagrams", "compose", "diagrams.compose"),
    ("partalg.diagrams", "enumerate_diagrams", "diagrams.enumerate_diagrams"),
    ("partalg.algebra", "multiply", "algebra.multiply"),
    ("partalg.linalg", "bareiss_det", "linalg.bareiss_det"),
    ("partalg.linalg", "rref", "linalg.rref"),
    ("partalg.tensor", "phi", "tensor.phi"),
    ("partalg.symgroup", "sym_matrix_units", "symgroup.sym_matrix_units"),
    ("partalg.combinatorics", "build_bratteli", "combinatorics.build_bratteli"),
)

# Report functions the workloads call; their spans give inclusive seconds.
REPORTS = (
    ("partalg.murphy", "verify_murphy"),
    ("partalg.structure", "gram"),
    ("partalg.structure", "semisimple_verdict"),
    ("partalg.structure", "char_decomposition_check"),
    ("partalg.structure", "specht"),
    ("partalg.structure", "radical_basis"),
    ("partalg.structure", "symmetrize"),
    ("partalg.tensor", "bimodule_dimension_check"),
)

# (module, class, methods, span name).  Aliases such as __radd__ = __add__
# are the same function object and are rebound with it.
METHODS = (
    (
        "partalg.scalars",
        "Poly",
        ("__add__", "__sub__", "__mul__", "__pow__", "__call__", "exact_div"),
        "scalars.poly",
    ),
    ("partalg.tensor", "EndoMatrix", ("__add__", "scale", "__matmul__"), "tensor.endo"),
)

GENERIC = "algebra.multiply.generic"
SPECIALIZED = "algebra.multiply.specialized"


def _count_compose(tracer, name, args, result):
    tracer.compose_pairs.add((args[0], args[1]))


def _multiply_mode(a, b) -> str:
    return GENERIC if a.mode is None else SPECIALIZED


def _count_multiply(tracer, name, args, result):
    a, b = args[0], args[1]
    tracer.counts[name + ".term_pairs"] += len(a.terms) * len(b.terms)
    tracer.counts[name + ".out_terms"] += len(result.terms)


def _count_bareiss(tracer, name, args, result):
    tracer.counts[name + ".cells"] += len(args[0]) ** 2


def _count_rref(tracer, name, args, result):
    rows, pivots = result
    tracer.counts[name + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)
    tracer.counts[name + ".pivots"] += len(pivots)


def _count_phi(tracer, name, args, result):
    if isinstance(args[0], Diagram):
        tracer.counts[name + ".entries"] += result.side**2


LAYERS = tuple(name for *_, name in FUNCTIONS if name != "algebra.multiply")
LAYERS += (GENERIC, SPECIALIZED) + tuple(name for *_, name in METHODS)

# Work counts recorded by the hooks above, beside each layer's calls.
COUNTS = (
    GENERIC + ".term_pairs",
    GENERIC + ".out_terms",
    SPECIALIZED + ".term_pairs",
    SPECIALIZED + ".out_terms",
    "linalg.bareiss_det.cells",
    "linalg.rref.cells",
    "linalg.rref.pivots",
    "tensor.phi.entries",
)

COUNTERS = {
    GENERIC: _count_multiply,
    SPECIALIZED: _count_multiply,
    "diagrams.compose": _count_compose,
    "linalg.bareiss_det": _count_bareiss,
    "linalg.rref": _count_rref,
    "tensor.phi": _count_phi,
}


class Tracer:
    """Records spans around partalg calls between install() and restore()."""

    def __init__(self):
        # Every span name, interned up front so spans store small ints.
        self._names = list(LAYERS) + ["report." + attr for _, attr in REPORTS]
        self._ids = {name: i for i, name in enumerate(self._names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._open_spans: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.compose_pairs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open_spans[-1] if self._open_spans else -1)
        self.span_end.append(0.0)
        self._open_spans.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._open_spans.pop()

    def _wrap(self, fn, name: str, pick=None):
        """Span-recording wrapper; ``pick(*args)``, when given, names each
        call's span instead of ``name``."""
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if pick is None else pick(*args)
            self.counts[span + ".calls"] += 1
            index = self._open(ids[span])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counter = COUNTERS.get(span)
            if counter is not None:
                counter(self, span, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        # Each step of the iteration is its own span, so work done by the
        # consumer between steps is not charged to the generator.
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            steps = fn(*args, **kwargs)
            while True:
                index = self._open(name_id)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    def install(self) -> None:
        """Rebinds every named function and method to a span-recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for module, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            if name == "algebra.multiply":
                wrapper = self._wrap(fn, name, _multiply_mode)
            elif name == "diagrams.enumerate_diagrams":
                wrapper = self._wrap_generator(fn, name)
            else:
                wrapper = self._wrap(fn, name)
            wrappers[id(fn)] = (fn, wrapper)
        for module, attr in REPORTS:
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, "report." + attr))
        for modname, mod in list(sys.modules.items()):
            if modname != "partalg" and not modname.startswith("partalg."):
                continue
            self._patch_namespace(mod, wrappers)
        for module, cls_name, methods, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            named = {}
            for method in methods:
                fn = cls.__dict__[method]
                named[id(fn)] = (fn, self._wrap(fn, name))
            self._patch_namespace(cls, named)

    def _patch_namespace(self, owner, wrappers: dict) -> None:
        for attr, value in list(vars(owner).items()):
            found = wrappers.get(id(value))
            if found is not None and found[0] is value:
                self._patches.append((owner, attr, value))
                setattr(owner, attr, found[1])

    def restore(self) -> None:
        """Puts every original object back where install() found it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: counts, self seconds, and report seconds.

        A span's self time is its duration minus the durations of its
        direct child spans.  Layers that never ran read 0.
        """
        count = len(self.span_start)
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_time = [0.0] * count
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += durations[index]
        self_s = [0.0] * len(self._names)
        total_s = [0.0] * len(self._names)
        for index, name_id in enumerate(self.span_name):
            self_s[name_id] += durations[index] - child_time[index]
            total_s[name_id] += durations[index]

        out: dict[str, float] = {}
        for name in LAYERS:
            out[name + ".calls"] = self.counts[name + ".calls"]
            out[name + ".self_s"] = self_s[self._ids[name]]
        for _, attr in REPORTS:
            out["report." + attr + ".s"] = total_s[self._ids["report." + attr]]
        for key in COUNTS:
            out[key] = self.counts[key]
        calls = out["diagrams.compose.calls"]
        out["diagrams.compose.distinct_frac"] = len(self.compose_pairs) / calls if calls else 0.0
        return out
