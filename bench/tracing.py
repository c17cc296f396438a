"""Spans around every call into a public function of a ``weylsep`` module.

The tracer replaces each public module-level function of the traced modules
with a wrapper, in every ``weylsep`` namespace that refers to it, so calls the
library makes internally are traced too. Nothing under ``src/`` changes; the
originals are restored by :meth:`Tracer.uninstall`.

A span is ``[name, start_ns, end_ns, parent, op, dims]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the operation index, and
``dims`` the subsystem dimensions of the first argument when it has them.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("weyl", "bloch", "bipartite", "linalg", "teleport", "states", "fileio", "cli")
SPAN_FIELDS = ["name", "start_ns", "end_ns", "parent", "op", "dims"]
ROOT_PREFIX = "op."


class Tracer:
    """Collects spans in memory while installed; written out by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self.fef: list[tuple[float, int, bool]] = []  # (value, evaluations, converged) per fef_search
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op,
                   getattr(args[0], "dims", None) if args else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "teleport.fef_search":
                self.fef.append((result.value, result.evaluations, result.converged))
            return result

        return traced

    def begin(self, op: int, kind: str) -> None:
        """Open the root span of one operation."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT_PREFIX + kind, time.perf_counter_ns(), 0, -1, op, None])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"weylsep.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "weylsep" and not modname.startswith("weylsep."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per module; root spans count as ``unattributed``."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, float] = defaultdict(float)
    for rec, covered in zip(spans, child):
        name = rec[0]
        module = "unattributed" if name.startswith(ROOT_PREFIX) else name.split(".", 1)[0]
        out[module] += (rec[2] - rec[1] - covered) * 1e-9
    return out


def busy_seconds(spans, match) -> float:
    """Time inside spans whose name satisfies ``match``, not counting nested matches twice."""
    total = 0
    for rec in spans:
        if not match(rec[0]):
            continue
        parent = rec[3]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return total * 1e-9


def per_shape_ms(spans, name: str) -> dict[tuple, float]:
    """Median duration in ms of the spans called ``name``, by argument dims."""
    by_dims = defaultdict(list)
    for rec in spans:
        if rec[0] == name and rec[5] is not None:
            by_dims[tuple(rec[5])].append((rec[2] - rec[1]) * 1e-6)
    return {dims: statistics.median(v) for dims, v in by_dims.items()}


def scaling_exponent(ms_by_dims: dict[tuple, float]) -> float:
    """Least-squares slope of log(ms) against log(dA*dB); 0 with fewer than three sizes."""
    by_size = defaultdict(list)
    for dims, ms in ms_by_dims.items():
        by_size[math.prod(dims)].append(ms)
    if len(by_size) < 3:
        return 0.0
    xs = [math.log(size) for size in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def root_medians_ms(spans, child_name: str) -> dict[str, float]:
    """Median ms of ``child_name`` spans, keyed by the kind of their root operation."""
    by_kind = defaultdict(list)
    for rec in spans:
        if rec[0] != child_name:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][3] >= 0:
            parent = spans[parent][3]
        if parent >= 0:
            by_kind[spans[parent][0][len(ROOT_PREFIX):]].append((rec[2] - rec[1]) * 1e-6)
    return {kind: statistics.median(v) for kind, v in by_kind.items()}
