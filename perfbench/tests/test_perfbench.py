"""Tests of the benchmark itself: its anchors, its failure path and its tracer.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer


def small_plan() -> dict:
    """One task of every kind, small enough for a pass to take well under a second."""
    tasks = [
        workloads.cry_task(5),
        workloads.tesler_task(5),
        workloads.wide_task(0, (2, 2, 2), workloads.PACK_LIMIT // 2 + 1, 0),
        workloads.suite_task("eq2", 4, 4, 1),
        workloads.dissect_task(4),
        workloads.census_task(5),
        workloads.dot_task(5),
    ]
    return workloads.make_plan("small", 0, tasks)


def test_closed_forms_match_known_values():
    assert [workloads.cry_volume(nv) for nv in range(4, 9)] == [1, 2, 10, 140, 5880]
    assert [workloads.tesler_volume(nv) for nv in range(4, 7)] == [4, 160, 107520]
    for mults, p, q in [((1, 1, 1), 3, 0), ((2, 2, 2), 4, 1), ((1, 3, 2), 2, 3)]:
        edge_values = itertools.product(range(p + q + 1), repeat=sum(mults))
        brute = 0
        for values in edge_values:
            x12 = sum(values[:mults[0]])
            x13 = sum(values[mults[0]:mults[0] + mults[1]])
            x23 = sum(values[mults[0] + mults[1]:])
            brute += x12 + x13 == p and x23 == x12 + q
        assert workloads.three_vertex_count(mults, p, q) == brute


def test_family_enumeration_matches_the_program_family():
    from flowpoly.verify import iter_family

    for max_vertices, max_edges in [(4, 5), (4, 6), (5, 5)]:
        expected = workloads.family_graph_counts(max_vertices, max_edges)
        actual = {}
        for graph in iter_family(max_vertices, max_edges):
            actual[graph.vertex_count] = actual.get(graph.vertex_count, 0) + 1
        assert actual == expected


def test_plans_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    one, two = workloads.build("ladder", 1), workloads.build("ladder", 2)
    orders = [[t["id"] for t in workloads.pass_tasks(plan, k)] for plan in (one, two) for k in (0, 1)]
    assert len({tuple(order) for order in orders}) == 4
    assert workloads.pass_tasks(one, 1) == workloads.pass_tasks(workloads.build("ladder", 1), 1)
    wide = [t["netflow"] for t in one["tasks"] if t["id"].startswith("wide")]
    assert wide != [t["netflow"] for t in two["tasks"] if t["id"].startswith("wide")]
    for p, q, _ in wide:
        assert 2 * (p + q) >= workloads.PACK_LIMIT


def test_wrong_anchor_fails_the_run(monkeypatch, capsys):
    plan = small_plan()
    plan["tasks"][0]["expect"] = str(int(plan["tasks"][0]["expect"]) + 1)
    dissect = next(t for t in plan["tasks"] if t["op"] == "cli" and t["check"] == "cells")
    dissect["expect"] = "11"
    monkeypatch.setattr(workloads, "build", lambda workload, seed: plan)
    assert run.main(["--workload", "ladder", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["attempted"] == sum(t["instances"] for t in plan["tasks"])


def test_traced_and_untraced_passes_give_identical_answers():
    plan = small_plan()
    measured = run.measure(plan, 0, trace=True)
    (untraced,), (traced,) = measured["passes"], measured["traced"]
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["answers"] == traced["answers"]
    assert len(untraced["answers"]) == len(plan["tasks"])
    layers = traced["layers"]
    assert layers["kostant.FlowCounter.count.wide_calls"] == 1
    assert layers["reduction.unimodular_dissection.cells"] == workloads.cry_volume(6)
    assert layers["reduction.canonical_reduction_tree.calls"] == 1
    assert layers["verify.suite.instances"] == workloads.suite_instances("eq2", 4, 4, 1)
    assert layers["cli.main.calls"] == 4
    assert "layers" not in untraced


def _bindings() -> dict:
    import flowpoly
    from flowpoly import AmbientLattice, DirectedMultigraph, FlowCounter
    from flowpoly.verify import SUITES

    found = {}
    for modname, module in sys.modules.items():
        if modname == "flowpoly" or modname.startswith("flowpoly."):
            found.update({(modname, k): v for k, v in vars(module).items()})
    for cls in (AmbientLattice, DirectedMultigraph, FlowCounter):
        found.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    found.update({("SUITES", k): v for k, v in SUITES.items()})
    assert flowpoly
    return found


def test_tracer_wraps_every_binding_and_leaves_none_behind():
    import flowpoly.cli
    import flowpoly.verify
    from flowpoly import lidskii

    before = _bindings()
    original = lidskii.lidskii_count
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = lidskii.lidskii_count
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert flowpoly.verify.lidskii_count is flowpoly.cli.lidskii_count is flowpoly.lidskii_count is wrapped
        assert all(hasattr(fn, "__wrapped__") for fn in flowpoly.verify.SUITES.values())
        assert flowpoly.lidskii_count(flowpoly.complete_graph(4), (1, 1, 1, -3)) == 7
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.metrics()
    assert metrics["lidskii.lidskii_count.calls"] == 1
    assert metrics["lidskii.dominant_compositions.calls"] == 1
    assert metrics["multigraph.degree_stats.calls"] >= 1


def test_tracer_times_generators_per_item():
    import time

    from flowpoly import complete_graph, reduction

    tracer = Tracer()
    tracer.install()
    try:
        leaves = reduction.iter_reduction_leaves(complete_graph(5))
        next(leaves)
        time.sleep(0.2)  # consumer time between items is not leaf-walk time
        next(leaves)
        leaves.close()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["reduction.iter_reduction_leaves.leaves"] == 2
    assert metrics["reduction.reduce_at_vertex.calls"] == 4
    assert metrics["reduction.iter_reduction_leaves.self_s"] < 0.1


def test_fails_without_the_program(tmp_path):
    here = run.HERE
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
