"""The names the benchmark in perfbench/ binds in flowpoly.

The benchmark's own tests sit outside the tests/ tree, so a deleted or
renamed name would break only them.  These tests load its tracer, which
wraps one function or method per span, and look up the names its worker
calls."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import flowpoly
import flowpoly.cli
import flowpoly.verify
from conftest import SpyCounter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracer_module(monkeypatch):
    """perfbench/tracer.py, imported with perfbench/ on sys.path; it and the
    workloads module it imports are dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracer")
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_binds_every_span(tracer_module):
    suites = dict(flowpoly.verify.SUITES)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        spans = {span for span, *_ in tracer_module.SPANS} | {tracer_module.SUITE_SPAN[0]}
        assert set(tracer.layers) == spans
        assert all(flowpoly.verify.SUITES[name] is not runner for name, runner in suites.items())
    finally:
        tracer.uninstall()
    assert flowpoly.verify.SUITES == suites


def test_item_count_spans_name_generators(tracer_module):
    # The tracer counts the items of a span whose work is an item count
    # ({"leaves": None}) by wrapping it as a generator; around a plain
    # function it would call None(args, result) and crash traced runs only.
    # A generator under any other span would fail to install or drop its
    # counts.
    item_spans = 0
    for span, modname, path, work in tracer_module.SPANS:
        fn = importlib.import_module(f"flowpoly.{modname}")
        for name in path.split("."):
            fn = getattr(fn, name)
        counts_items = bool(work) and all(count is None for count in work.values())
        assert inspect.isgeneratorfunction(fn) == counts_items, span
        item_spans += counts_items
    assert item_spans == 2  # iter_reduction_leaves and iter_family


def test_worker_names_exist():
    # what perfbench/worker.py calls, by the names it uses
    for name in ("DirectedMultigraph", "FlowInstance", "count_flows", "lidskii_volume",
                 "write_graph"):
        assert callable(getattr(flowpoly, name)), name
    assert callable(flowpoly.cli.main)


@pytest.mark.parametrize("name, netflow", [("lidskii_count", (1, 1, 1, -3)),
                                           ("lidskii_volume", (1, 0, 0, -1))])
def test_one_evaluation_lists_compositions_once(monkeypatch, name, netflow):
    # one evaluation walks K4's compositions (2, 1, 0) and (3, 0, 0) once
    # and reads the K_j of those with a nonzero weight once each, in order;
    # the volume's weight at (1, 0, 0, -1) is zero at (2, 1, 0)
    listed = {"lidskii_count": [(2, 1, 0), (3, 0, 0)], "lidskii_volume": [(3, 0, 0)]}[name]
    counters = []
    monkeypatch.setattr(flowpoly.lidskii, "FlowCounter",
                        lambda graph: counters.append(SpyCounter(graph)) or counters[-1])
    getattr(flowpoly.lidskii, name)(flowpoly.complete_graph(4), netflow)
    (spy,) = counters
    evaluated = spy.asked[:]
    terms = flowpoly.LidskiiTerms(spy.graph, spy)
    for j in listed:
        terms.shifted_count(j)
    assert spy.asked == evaluated * 2
