"""Per-layer tracing of mubc from outside the package.

``Tracer.install`` replaces every module attribute bound to a listed public
function with a timing wrapper, so a call made through any binding (cli's
own ``search_extension``, the package's re-export, the defining module's
attribute that the benchmark calls through) records a span, and nested
calls nest. Nothing under ``src/``
changes. Spans are kept in memory as ``[name, start, end, parent, item]``
and written out by the caller at the end of the run.

QuadNum operations are far too many to keep one span each, so they are
recorded as per-operation call counts and summed time. An operation called
inside another (``/`` multiplies by an inverse) belongs to the outer one.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from mubc.errors import DegenerateBlock, SingularCayley
from mubc.exact import QuadNum

SPAN_FUNCTIONS = {
    "symplectic": (
        "verify_mu",
        "symp_product",
        "expanded_product",
        "apply_transform",
        "config_from_json",
        "overlap_magnitude_sq",
    ),
    "metaplectic": ("genmu_overlap_sq", "compose_overlap_sq"),
    "oracle": ("overlap_quadrature",),
    "search": ("search_extension", "certify_no_fourth", "find_equivalence"),
    "cli": ("main",),
}

QUADNUM_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "addsub": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "inverse": ("inverse", "__truediv__", "__rtruediv__"),
    "sign": ("sign",),
    "float": ("__float__",),
    "parse": ("parse",),
}

ITEM_SPAN = "bench.item"
LAYERS = ("exact",) + tuple(SPAN_FUNCTIONS) + ("bench",)


def _observe_quadrature(counters: Counter, result) -> None:
    counters["eps_levels"] += len(result.epsilon_sequence)
    counters["unconverged"] += not result.converged


def _observe_search(counters: Counter, report) -> None:
    counters["candidates"] += report.evaluations
    counters["completions"] += len(report.solutions)


_OBSERVERS = {
    "oracle.overlap_quadrature": _observe_quadrature,
    "search.search_extension": _observe_search,
}


class Tracer:
    """Spans, QuadNum operation counts and layer counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = None
        # per span name: [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # per QuadNum operation: [calls, seconds]
        self.ops: dict[str, list] = {op: [0, 0.0] for op in QUADNUM_OPS}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [span index, child seconds]
        self._in_op = False
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[frame[0]]
        span[2] = end
        duration = end - span[1]
        stat = self.stats[span[0]]
        stat[0] += 1
        stat[1] += duration - frame[1]
        stat[2] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def run_item(self, item_id, fn, *args):
        """Call fn(*args) as one item under a root span."""
        self.item = item_id
        frame = self._open(ITEM_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.item = None

    def _span_wrapper(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        singular = name == "metaplectic.genmu_overlap_sq"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except (SingularCayley, DegenerateBlock):
                if singular:
                    self.counters["singular"] += 1
                raise
            finally:
                self._close(frame)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def _op_wrapper(self, op: str, fn):
        stat = self.ops[op]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._in_op = False
                stat[0] += 1
                stat[1] += duration
                if self._stack:
                    self._stack[-1][1] += duration

        return traced

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every binding in the loaded mubc modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "mubc" or n.startswith("mubc.")]
        for layer, names in SPAN_FUNCTIONS.items():
            home = sys.modules[f"mubc.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for op, attrs in QUADNUM_OPS.items():
            for attr in attrs:
                original = QuadNum.__dict__[attr]
                self._restore.append((QuadNum, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._op_wrapper(op, original.__func__))
                else:
                    wrapped = self._op_wrapper(op, original)
                setattr(QuadNum, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self seconds per listed name, plus ratios."""
        out: dict[str, tuple[float, str]] = {}
        for op, (calls, seconds) in self.ops.items():
            out[f"exact.{op}.calls"] = (calls, "count")
            out[f"exact.{op}.self_s"] = (seconds, "s")
        out["exact.self_s"] = (sum(s for _, s in self.ops.values()), "s")
        for layer, names in SPAN_FUNCTIONS.items():
            for fname in names:
                calls, self_s, _ = self.stats[f"{layer}.{fname}"]
                out[f"{layer}.{fname}.calls"] = (calls, "count")
                out[f"{layer}.{fname}.self_s"] = (self_s, "s")
        c = self.counters
        genmu_calls = self.stats["metaplectic.genmu_overlap_sq"][0]
        quad_calls = self.stats["oracle.overlap_quadrature"][0]
        search_s = self.stats["search.search_extension"][2]
        out["metaplectic.singular_frac"] = (c["singular"] / genmu_calls if genmu_calls else 0.0, "frac")
        out["oracle.eps_levels"] = (c["eps_levels"], "count")
        out["oracle.retry_frac"] = (c["unconverged"] / quad_calls if quad_calls else 0.0, "frac")
        out["search.candidates"] = (c["candidates"], "count")
        out["search.candidates_per_s"] = (c["candidates"] / search_s if search_s else 0.0, "1/s")
        out["search.hit_ratio"] = (
            c["completions"] / c["candidates"] if c["candidates"] else 0.0,
            "frac",
        )
        return out

    def layer_self_seconds(self) -> dict:
        """Self seconds summed per layer; "bench" is the items' own code."""
        totals = dict.fromkeys(LAYERS, 0.0)
        totals["exact"] = sum(s for _, s in self.ops.values())
        for name, (_, self_s, _) in self.stats.items():
            layer = name.split(".")[0]
            totals[layer] += self_s
        return totals
