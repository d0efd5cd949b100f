"""Spans around the pointspec layers, recorded from outside the package.

`Tracer.install` replaces each traced function, wherever a pointspec module
holds it (so names that `cli` and `kernels` imported are covered too), by a
wrapper that records a span: name, start, end, parent span and operation id.
The scipy entries that `spectral` (brentq, the root refinement) and `oracle`
(eigs, ARPACK) call are wrapped in those two modules only.  The current span
lives in a context variable, and `cli`'s thread pool is swapped for one that
runs each task in a copy of the submitting context, so spans recorded in the
scan workers keep `cli.main` as their parent.  Spans stay in memory; the
per-layer metrics are computed from them when the run ends.  Nothing under
src/ is edited.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

LAYERS = ("cli", "u2param", "spectral", "eigenstates", "kernels", "oracle")

#: span name -> (module, attribute); the layer is the text before the dot
TRACED = {
    "cli.main": ("cli", "main"),
    "u2param.make_u2": ("u2param", "make_u2"),
    "u2param.classify": ("u2param", "classify"),
    "spectral.spectrum": ("spectral", "spectrum"),
    "spectral.find_positive_roots": ("spectral", "find_positive_roots"),
    "spectral.find_negative_roots": ("spectral", "find_negative_roots"),
    "eigenstates.solve_coefficients": ("eigenstates", "solve_coefficients"),
    "eigenstates.negative_mode": ("eigenstates", "negative_mode"),
    "eigenstates.zero_mode": ("eigenstates", "zero_mode"),
    "eigenstates.boundary_residual": ("eigenstates", "boundary_residual"),
    "eigenstates.mode_inner": ("eigenstates", "mode_inner"),
    "kernels.spectral_heat_kernel": ("kernels", "spectral_heat_kernel"),
    "kernels.image_heat_kernel": ("kernels", "image_heat_kernel"),
    "kernels.build_image_terms": ("kernels", "build_image_terms"),
    "kernels.images_needed": ("kernels", "images_needed"),
    "kernels.spectral_levels_needed": ("kernels", "spectral_levels_needed"),
    "oracle.fd_spectrum": ("oracle", "fd_spectrum"),
}
#: third-party entries, wrapped only in the module that calls them
TRACED_IMPORTS = {
    "spectral.refine": ("spectral", "brentq"),
    "oracle.eigs": ("oracle", "eigs"),
}
#: spans whose result is kept as a number for the layer counters
_VALUE = {
    "spectral.spectrum": lambda r: len(r.levels),
    "eigenstates.solve_coefficients": len,
    "eigenstates.negative_mode": lambda r: 1,
    "eigenstates.zero_mode": lambda r: 1,
    "eigenstates.boundary_residual": float,
    "kernels.spectral_levels_needed": int,
    "kernels.images_needed": int,
}
#: calls and time per operation are reported for these spans
TIMED = (
    "spectral.spectrum", "spectral.find_positive_roots", "spectral.find_negative_roots",
    "spectral.refine", "u2param.make_u2", "u2param.classify",
    "eigenstates.solve_coefficients", "eigenstates.negative_mode", "eigenstates.zero_mode",
    "eigenstates.boundary_residual", "eigenstates.mode_inner",
    "kernels.spectral_heat_kernel", "kernels.image_heat_kernel",
    "kernels.build_image_terms", "kernels.images_needed",
    "oracle.fd_spectrum", "cli.main",
)


class Span(NamedTuple):
    id: int
    name: str
    parent: int
    op: int
    start: float
    end: float
    value: float | None


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("pointspec_span", default=0)
        self._undo = []

    def _wrap(self, name, fn):
        value_of = _VALUE.get(name)
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                value = value_of(result) if value_of else None
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append(Span(sid, name, parent, self.op, start, end, value))

        return traced

    def _replace(self, module, attr, new):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pointspec" or name.startswith("pointspec."))
        }
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for name, (mod_name, attr) in TRACED_IMPORTS.items():
            mod = modules.get(mod_name)
            if getattr(mod, attr, None) is not None:
                self._replace(mod, attr, self._wrap(name, getattr(mod, attr)))
        cli = modules.get("cli")
        if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._replace(cli, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans, n_ops):
    """Per-layer metrics per operation, from the spans of n_ops operations."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    calls, inclusive = defaultdict(int), defaultdict(float)
    values = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    positive_children = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        if s.value is not None:
            values[s.name].append(s.value)
        layer_self[s.name.partition(".")[0]] += own[s.id]
        parent = by_id.get(s.parent)
        if s.name == "spectral.find_positive_roots" and parent and parent.name == "spectral.spectrum":
            positive_children[parent.id] += 1
        # nested calls of the same function count once in its time
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            inclusive[s.name] += s.end - s.start

    n = max(1, n_ops)
    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (calls[name] / n, "calls/op")
        m[f"{name}.ms"] = (1e3 * inclusive[name] / n, "ms/op")
    roots_ms = inclusive["spectral.find_positive_roots"] + inclusive["spectral.find_negative_roots"]
    m["spectral.bracket_ms"] = (1e3 * (roots_ms - inclusive["spectral.refine"]) / n, "ms/op")
    extra = sum(max(0, c - 1) for c in positive_children.values())
    m["spectral.kmax_enlargements"] = (extra / n, "count/op")
    m["spectral.levels"] = (sum(values["spectral.spectrum"]) / n, "count/op")
    modes = sum(sum(values[k]) for k in (
        "eigenstates.solve_coefficients", "eigenstates.negative_mode", "eigenstates.zero_mode"))
    m["eigenstates.modes"] = (modes / n, "count/op")
    m["eigenstates.max_boundary_residual"] = (max(values["eigenstates.boundary_residual"], default=0.0), "1")
    m["kernels.levels_used"] = (sum(values["kernels.spectral_levels_needed"]) / n, "count/op")
    m["kernels.images_used"] = (sum(values["kernels.images_needed"]) / n, "count/op")
    m["oracle.eigs_ms"] = (1e3 * inclusive["oracle.eigs"] / n, "ms/op")
    m["oracle.assembly_ms"] = (
        1e3 * (inclusive["oracle.fd_spectrum"] - inclusive["oracle.eigs"]) / n, "ms/op")
    total_self = sum(layer_self.values()) or 1.0
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * layer_self[layer] / n, "ms/op")
        m[f"{layer}.share_pct"] = (100.0 * layer_self[layer] / total_self, "%")
    return m
