"""Per-layer tracing of flowpoly from outside the package.

Tracer.install() wraps a fixed list of public functions and methods; each
wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses, so a layer's self_s is the time spent
in its own code and in flowpoly code that is not wrapped.  Generator
functions are timed per next() call, so time the consumer spends between
items is not charged to the generator.  Spans are folded into per-layer
totals in memory as they close; metrics() reads them out at the end, and
uninstall() puts back every original object.

flowpoly modules bind some functions by name when they import them (verify
and cli both import lidskii_count, for example), so install() replaces every
binding, in every loaded flowpoly module, that holds the original object,
including the values of module-level dicts such as verify.SUITES.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

from workloads import PACK_LIMIT


def _wide(args) -> int:
    """1 when FlowCounter.count(self, netflow) gets a netflow above the pack
    limit."""
    entries = getattr(args[1], "entries", args[1])
    return int(sum(e for e in entries if e > 0) + max(abs(e) for e in entries) >= PACK_LIMIT)


# (span name, module, attribute path, {work count: f(args, result)})
SPANS = (
    ("kostant.FlowCounter.count", "kostant", "FlowCounter.count",
     {"zeros": lambda a, r: int(r == 0), "wide_calls": lambda a, r: _wide(a)}),
    ("kostant.ehrhart_polynomial", "kostant", "ehrhart_polynomial", {}),
    ("kostant.count_flows", "kostant", "count_flows", {}),
    ("lidskii.dominant_compositions", "lidskii", "dominant_compositions",
     {"compositions": lambda a, r: len(r)}),
    ("lidskii.lidskii_volume", "lidskii", "lidskii_volume", {}),
    ("lidskii.lidskii_count", "lidskii", "lidskii_count", {}),
    ("lidskii.lidskii_count_c_form", "lidskii", "lidskii_count_c_form", {}),
    ("multigraph.is_connected", "multigraph", "DirectedMultigraph.is_connected", {}),
    ("multigraph.degree_stats", "multigraph", "degree_stats", {}),
    ("reduction.reduce_at_vertex", "reduction", "reduce_at_vertex", {}),
    ("reduction.zero_vertex_dissection_children", "reduction", "zero_vertex_dissection_children", {}),
    ("reduction.iter_reduction_leaves", "reduction", "iter_reduction_leaves", {"leaves": None}),
    ("reduction.unimodular_dissection", "reduction", "unimodular_dissection",
     {"cells": lambda a, r: len(r)}),
    ("reduction.canonical_reduction_tree", "reduction", "canonical_reduction_tree",
     {"nodes": lambda a, r: r.node_count}),
    ("geometry.verify_dissection", "geometry", "verify_dissection", {}),
    ("geometry.is_unimodular", "geometry", "is_unimodular", {}),
    ("geometry.contains_flow", "geometry", "contains_flow", {}),
    ("geometry.AmbientLattice", "geometry", "AmbientLattice.__init__", {}),
    ("verify.iter_family", "verify", "iter_family", {"graphs": None}),
    ("cli.main", "cli", "main", {}),
)
# Every suite runner shares one span; each returns a SuiteResult.
SUITE_SPAN = ("verify.suite", "verify", {"instances": lambda a, r: r.instances})


class _Layer:
    __slots__ = ("calls", "self_s", "max_call_s", "work")

    def __init__(self, work_names):
        self.calls = 0
        self.self_s = 0.0
        self.max_call_s = 0.0
        self.work = dict.fromkeys(work_names, 0)


class Tracer:
    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self._open: list[list[float]] = []  # per open span: [time covered by its children]
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _close(self, layer: _Layer, start: float, frame: list[float]) -> None:
        """Record the innermost open span, which started at start."""
        duration = perf_counter() - start
        self._open.pop()
        layer.calls += 1
        layer.self_s += duration - frame[0]
        if duration > layer.max_call_s:
            layer.max_call_s = duration

    def _charge_parent(self, start: float) -> None:
        # the enclosing span loses the whole wrapped call, bookkeeping included
        if self._open:
            self._open[-1][0] += perf_counter() - start

    def _wrap_call(self, fn, layer: _Layer, work: dict):
        open_spans = self._open

        def traced(*args, **kwargs):
            frame = [0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(layer, start, frame)
                self._charge_parent(start)
                raise
            self._close(layer, start, frame)
            for name, count in work.items():
                layer.work[name] += count(args, result)
            self._charge_parent(start)
            return result

        return traced

    def _wrap_generator(self, fn, layer: _Layer, item_name: str):
        open_spans = self._open

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    open_spans.append(frame)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(layer, start, frame)
                        self._charge_parent(start)
                    layer.work[item_name] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def _wrapper(self, fn, layer: _Layer, work: dict):
        if inspect.isgeneratorfunction(fn):
            (item_name,) = work
            wrapped = self._wrap_generator(fn, layer, item_name)
        else:
            wrapped = self._wrap_call(fn, layer, work)
        return functools.update_wrapper(wrapped, fn)

    # --- patching ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        """Bind owner.name (owner[name] for a dict) to value, keeping the
        original for uninstall()."""
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def _rebind(self, original, wrapped) -> None:
        """Point every module-level binding of original at wrapped."""
        for modname, module in list(sys.modules.items()):
            if modname != "flowpoly" and not modname.startswith("flowpoly."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapped)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapped)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        # import everything first: a module imported later would copy a
        # wrapper into its namespace where uninstall() cannot see it
        modules = {name: importlib.import_module(f"flowpoly.{name}")
                   for name in {spec[1] for spec in SPANS}}
        for span, modname, path, work in SPANS:
            module = modules[modname]
            layer = self.layers[span] = _Layer(work)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                self._set(owner, attr, self._wrapper(vars(owner)[attr], layer, work))
            else:
                original = getattr(module, path)
                self._rebind(original, self._wrapper(original, layer, work))
        span, modname, work = SUITE_SPAN
        layer = self.layers[span] = _Layer(work)
        for name, value in list(vars(modules[modname]).items()):
            if name.startswith("run_") and name.endswith("_suite") and callable(value):
                self._rebind(value, self._wrapper(value, layer, work))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <span>.calls, .self_s, .max_call_s, one
        entry per work count, and zero_frac where zeros are counted."""
        out = {}
        for span, layer in self.layers.items():
            out[f"{span}.calls"] = layer.calls
            out[f"{span}.self_s"] = layer.self_s
            out[f"{span}.max_call_s"] = layer.max_call_s
            for name, value in layer.work.items():
                if name == "zeros":
                    out[f"{span}.zero_frac"] = value / layer.calls if layer.calls else 0.0
                else:
                    out[f"{span}.{name}"] = value
        return out
