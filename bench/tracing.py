"""Spans and counters recorded from outside lapgraph.

A traced run rebinds each function in ``LAYERS`` to a wrapper in every
lapgraph module that holds it (``spanning.int_det``, ``linalg.int_det`` and
``lapgraph.int_det`` are separate bindings) and restores the originals
afterwards.  A wrapper records a span (name, start, end, parent) in memory,
with the parent taken from a context variable, plus the counters named in
``EXTRAS``.  A function's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from math import comb

# Public functions timed per layer.  fields is too fine-grained to wrap; cli
# is a thin front end over these same calls.
LAYERS = {
    "laurent": ("laurent_gcd", "divexact"),
    "linalg": ("int_det", "det_laurent", "elementary_divisor"),
    "graphs": ("cover_graph", "restriction_subgraph"),
    "spanning": ("tree_count", "complexity", "crsf_coefficients", "annular_connectivity"),
    "colorings": ("bicycle_basis", "conservative_vertex_basis"),
    "planar": ("medial_components", "medial_components_voltage", "shank_basis", "dehn_extend"),
    "mahler": ("mahler_1var", "mahler_2var"),
    "graphio": ("parse_graph_file",),
    "verify": ("run_verify",),
}
# graphio runs only while setting up, so its metrics come from the traced
# set-up; every other layer's come from the traced passes.
SETUP_LAYERS = ("graphio",)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _elementary_divisor(c, args, kwargs, result):
    n, k, dom = len(args[0]), _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "dom")
    c["minors"] += comb(n, k) ** 2 if k < n else 0
    terms = list(result.coeffs.values())
    # A unit of the Laurent ring: a monomial, with coefficient +-1 over ZZ.
    c["unit_ratio"] += len(terms) == 1 and (dom.is_field or abs(terms[0]) == 1)


def _det_laurent(c, args, kwargs, result):
    c["cofactor_calls" if len(args[0]) <= 4 else "bareiss_calls"] += 1
    c["zero_ratio"] += result.is_zero()


def _int_det(c, args, kwargs, result):
    c["max_order"] = max(c["max_order"], len(args[0]))
    c["max_result_bits"] = max(c["max_result_bits"], abs(result).bit_length())


def _graph_size(c, args, kwargs, result):
    c["vertices"] += len(result.vertices)
    c["edges"] += len(result.edges)


def _mahler_1var(c, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    c["max_degree"] = max(c["max_degree"], f.degree_span()[0])


def _mahler_2var(c, args, kwargs, result):
    c["fibers"] += _arg(args, kwargs, 1, "fibers", 1024)


_GRAPH_SIZE = (_graph_size, (("vertices", "count"), ("edges", "count")))
# Counters beyond calls and self time: per function, the collector and the
# (stat, unit) pairs it counts under.  A "ratio" stat is counted as a total
# and divided by the call count.
EXTRAS = {
    "linalg.elementary_divisor": (_elementary_divisor, (("minors", "count"), ("unit_ratio", "ratio"))),
    "linalg.det_laurent": (
        _det_laurent,
        (("cofactor_calls", "count"), ("bareiss_calls", "count"), ("zero_ratio", "ratio")),
    ),
    "linalg.int_det": (_int_det, (("max_order", "count"), ("max_result_bits", "bit"))),
    "graphs.cover_graph": _GRAPH_SIZE,
    "graphs.restriction_subgraph": _GRAPH_SIZE,
    "mahler.mahler_1var": (_mahler_1var, (("max_degree", "count"),)),
    "mahler.mahler_2var": (_mahler_2var, (("fibers", "count"),)),
}
NO_EXTRAS = (None, ())
OVERHEAD_METRIC = "bench.trace.overhead_s"


def layer_functions() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric."""
    out = []
    for qual in layer_functions():
        out += [(f"{qual}.calls", "count"), (f"{qual}.self_s", "s")]
        out += [(f"{qual}.{stat}", unit) for stat, unit in EXTRAS.get(qual, NO_EXTRAS)[1]]
    return out + [(OVERHEAD_METRIC, "s")]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._current: ContextVar[int] = ContextVar("bench_span", default=-1)
        self._bindings: list[tuple] | None = None

    @contextmanager
    def installed(self):
        """Rebind every layer function to its wrapper, and restore on exit."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        try:
            for m, attr, _, wrapper in self._bindings:
                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original, _ in self._bindings:
                setattr(m, attr, original)

    def _find_bindings(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every lapgraph binding
        of a layer function."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "lapgraph"]
        bindings = []
        for mod, fns in LAYERS.items():
            home = sys.modules[f"lapgraph.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            bindings.append((m, attr, original, wrapper))
        return bindings

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; its parent is the enclosing span."""
        parent = self._current.get()
        idx = len(self.spans)
        self.spans.append(None)
        token = self._current.set(idx)
        start = time.thread_time()
        try:
            yield
        finally:
            end = time.thread_time()
            self._current.reset(token)
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, qual: str, fn):
        extra, _ = EXTRAS.get(qual, NO_EXTRAS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(qual):
                result = fn(*args, **kwargs)
            if extra is not None:
                extra(self.counters[qual], args, kwargs, result)
            return result

        return traced

    def take(self) -> tuple[list, dict]:
        """Return and clear the spans and counters recorded so far."""
        spans, counters = list(self.spans), {k: dict(v) for k, v in self.counters.items()}
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_stats(spans, counters, layers=None) -> dict[str, float]:
    """Per-layer metrics from one traced phase; ``layers`` limits the modules."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
    out = {}
    for qual in layer_functions():
        if layers is not None and qual.split(".")[0] not in layers:
            continue
        n = calls.get(qual, 0)
        c = counters.get(qual, {})
        out[f"{qual}.calls"] = n
        out[f"{qual}.self_s"] = self_s.get(qual, 0.0)
        for stat, unit in EXTRAS.get(qual, NO_EXTRAS)[1]:
            value = c.get(stat, 0)
            out[f"{qual}.{stat}"] = (value / n if n else 0.0) if unit == "ratio" else value
    return out
