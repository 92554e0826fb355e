"""Command-line interface: outputs, exit codes, JSON round trips."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unittest.mock
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import path_graph

import flowpoly.cli
import flowpoly.geometry
import flowpoly.verify
from flowpoly.cli import main
from flowpoly.multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    complete_graph,
    format_graph,
    parse_graph,
    write_graph,
)
from flowpoly import reduction
from flowpoly.reduction import NodeCapExceeded, SimplexCell, unimodular_dissection
from flowpoly.verify import SUITES, iter_family, run_in_vector_suite


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph(complete_graph(4), path)
    return str(path)


@pytest.fixture()
def path3_file(tmp_path):
    path = tmp_path / "path3.graph"
    write_graph(path_graph(3), path)
    return str(path)


def _failing_report(report):
    report.add("spoiled", False)
    return report


def _failing_first_checks(checks):
    """The dissection checks of a box with the first c's facet rule failed."""
    yield next(checks)._replace(overlap={"reason": "spoiled"})
    yield from checks


def reversed_graph_text(nv):
    """The complete graph's file with its edge lines in reverse order."""
    header, *edges = format_graph(complete_graph(nv)).splitlines()
    return "\n".join([header, *reversed(edges)]) + "\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKostant:
    def test_count(self, capsys, k4_file):
        code, out, _ = run(capsys, ["kostant", "--graph", k4_file, "--netflow", "1,0,0,-1"])
        assert code == 0 and out.strip() == "4"

    def test_sink_inferred(self, capsys, k4_file):
        code, out, _ = run(capsys, ["kostant", "--graph", k4_file, "--netflow", "1,0,0"])
        assert code == 0 and out.strip() == "4"

    def test_zero(self, capsys, k4_file):
        code, out, _ = run(capsys, ["kostant", "--graph", k4_file, "--netflow", "0,0,0,0"])
        assert code == 0 and out.strip() == "1"

    def test_infeasible(self, capsys, path3_file):
        code, out, _ = run(capsys, ["kostant", "--graph", path3_file, "--netflow", "0,-1,1"])
        assert code == 0 and out.strip() == "0"

    def test_bad_netflow_length(self, capsys, k4_file):
        assert run(capsys, ["kostant", "--graph", k4_file, "--netflow", "1,0"]) == (
            1, "", "error: netflow needs 4 entries (or 3 with the sink inferred), got 2\n")

    @pytest.mark.parametrize("name, reason", [("missing.graph", "No such file or directory"),
                                              (".", "Is a directory")], ids=["missing.graph", "."])
    def test_unreadable_graph_file(self, capsys, tmp_path, name, reason):
        path = tmp_path / name
        assert run(capsys, ["reduce", "--graph", str(path)]) == (
            1, "", f"error: cannot read graph file {path}: {reason}\n")

    def test_bad_graph_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("3\n1 two\n")
        assert run(capsys, ["kostant", "--graph", str(bad), "--netflow", "1,0,-1"]) == (
            1, "", f"error: {bad}: line 2: 'two' is not an integer\n")


class TestEhrhart:
    def test_human(self, capsys, k4_file):
        code, out, _ = run(capsys, ["ehrhart", "--graph", k4_file, "--netflow", "1,0,0"])
        assert code == 0 and out.strip() == "1, 11/6, 1, 1/6"

    def test_json_round_trip(self, capsys, k4_file):
        code, out, _ = run(
            capsys, ["ehrhart", "--graph", k4_file, "--netflow", "1,0,0", "--emit", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["1", "11/6", "1", "1/6"]

    def test_point(self, capsys, tmp_path):
        f = tmp_path / "edge.graph"
        f.write_text("2\n1 2\n")
        code, out, _ = run(capsys, ["ehrhart", "--graph", str(f), "--netflow", "1"])
        assert code == 0 and out.strip() == "1"

    def test_disconnected_rejected(self, capsys, tmp_path):
        f = tmp_path / "disc.graph"
        f.write_text("4\n1 2\n3 4\n")
        assert run(capsys, ["ehrhart", "--graph", str(f), "--netflow", "1,-1,1"]) == (
            1, "", "error: graph must be connected\n")


class TestLidskii:
    def test_volume(self, capsys, k4_file):
        code, out, _ = run(
            capsys, ["lidskii", "--graph", k4_file, "--mode", "volume", "--netflow", "1,1,0"]
        )
        assert code == 0 and out.strip() == "4"

    def test_count(self, capsys, k4_file):
        code, out, _ = run(
            capsys, ["lidskii", "--graph", k4_file, "--mode", "count", "--netflow", "0,1,2"]
        )
        assert code == 0 and out.strip() == "2"

    def test_c_form(self, capsys, k4_file):
        code, out, _ = run(capsys, ["lidskii", "--graph", k4_file, "--mode", "c-form", "--c", "3,2,2"])
        assert code == 0 and out.strip() == "22"

    def test_c_form_requires_c(self, capsys, k4_file):
        argv = ["lidskii", "--graph", k4_file, "--mode", "c-form", "--netflow", "1,0,0"]
        assert run(capsys, argv) == (1, "", "error: --mode c-form requires --c\n")


class TestReduce:
    def test_census(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file])
        assert code == 0
        assert "leaves: 2" in out
        assert "(2, 1, 0)" in out and "(3, 0, 0)" in out

    def test_census_json_round_trip(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file, "--emit", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["leaf_count"] == 2
        assert data["census"] == [{"composition": [2, 1, 0], "count": 1},
                                  {"composition": [3, 0, 0], "count": 1}]

    def test_path_single_leaf(self, capsys, path3_file):
        code, out, _ = run(capsys, ["reduce", "--graph", path3_file])
        assert code == 0 and "leaves: 1" in out

    def test_with_source(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file, "--c", "3,2,2", "--emit", "json"])
        assert code == 0
        assert json.loads(out)["census"] == [{"composition": [2, 1, 0], "count": 1},
                                             {"composition": [3, 0, 0], "count": 1}]

    def test_dot(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file, "--emit", "dot"])
        assert code == 0
        assert out.startswith("digraph reduction_tree")

    def test_dot_k5_unchanged(self, capsys, tmp_path):
        # pins the DOT node numbers: breadth first, the order of
        # ReductionTree.nodes(), derived by dot_lines from a depth-first walk
        path = tmp_path / "k5.graph"
        write_graph(complete_graph(5), path)
        code, out, _ = run(capsys, ["reduce", "--graph", str(path), "--emit", "dot"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f570f7671150e902e721b65fdedc880d2e3e8a711dd67ebfdeb6534c1ceb208c"
        )

    def test_dot_k5_reversed_edges_unchanged(self, capsys, tmp_path):
        # a root whose edges are not in canonical order: its first child is
        # sorted by the merge in reduce_at_vertex.  The DOT labels list edge
        # multisets, so this equals the digest of the canonical K5 file.
        path = tmp_path / "k5.graph"
        path.write_text(reversed_graph_text(5))
        code, out, _ = run(capsys, ["reduce", "--graph", str(path), "--emit", "dot"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f570f7671150e902e721b65fdedc880d2e3e8a711dd67ebfdeb6534c1ceb208c"
        )

    def test_node_cap_aborts_cleanly(self, capsys, k4_file):
        code, out, err = run(capsys, ["reduce", "--graph", k4_file, "--node-cap", "2"])
        assert code == 1
        assert "node cap" in err

    def test_dot_streams_without_tree_nodes(self, capsys, monkeypatch, k4_file):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree node was built")

        monkeypatch.setattr(reduction.ReductionTreeNode, "__init__", refuse)
        code, out, err = run(capsys, ["reduce", "--graph", k4_file, "--c", "3,2,2", "--emit", "dot"])
        assert (code, err) == (0, "")
        assert out.startswith("digraph reduction_tree {\n") and out.endswith("}\n")

    @pytest.mark.parametrize("argv", [
        ["reduce", "--emit", "dot"],
        ["dissect", "--c", "3,2,2", "--emit", "cells"],
    ], ids=["dot", "cells"])
    def test_node_cap_prints_nothing(self, capsys, k4_file, argv):
        argv = [argv[0], "--graph", k4_file, *argv[1:], "--node-cap", "2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: reduction exceeded the node cap of 2")
        assert err.count("\n") == 1


class TestDissect:
    def test_summary(self, capsys, k4_file):
        code, out, _ = run(capsys, ["dissect", "--graph", k4_file, "--c", "1,1,1"])
        assert code == 0 and "cells: 2" in out

    def test_cells_json(self, capsys, k4_file):
        code, out, _ = run(
            capsys, ["dissect", "--graph", k4_file, "--c", "3,2,2", "--emit", "cells"]
        )
        assert code == 0
        cells = json.loads(out)
        assert len(cells) == 22
        dim = 13 - 5 + 1
        assert all(len(c["vertices"]) == dim + 1 for c in cells)

    def test_cells_k4_unchanged(self, capsys, k4_file):
        # pins the cells, their order and their leaves against the per-leaf
        # dissection that preceded the leaf-shape cache
        code, out, _ = run(
            capsys, ["dissect", "--graph", k4_file, "--c", "3,2,2", "--emit", "cells"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "910562c70d2377dfb8c386ff68686e4ce1caac75cc18280207ab29c0d30effc9"
        )

    def test_summary_k6_unchanged(self, capsys, tmp_path):
        # the summary counts cells per leaf shape without building them; its
        # output is that of counting the built cells
        path = tmp_path / "k6.graph"
        write_graph(complete_graph(6), path)
        code, out, _ = run(capsys, ["dissect", "--graph", str(path), "--c", "2,2,2,2,2"])
        assert code == 0
        assert out.startswith("cells: 5880\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4ad5c7c3b3788e7fb66658ba4da35a4c02f9e525cbb9410ba7933c08c6da78b2"
        )

    def test_cells_k4_reversed_edges_unchanged(self, capsys, tmp_path):
        # the cells' coordinates follow the provenance of parallel edges, so
        # this digest pins the stable order of the merge in reduce_at_vertex
        path = tmp_path / "k4.graph"
        path.write_text(reversed_graph_text(4))
        code, out, _ = run(
            capsys, ["dissect", "--graph", str(path), "--c", "3,2,2", "--emit", "cells"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9dd53dda913c92be74738b4ee3b8466cf1d513866f270645e5212494597ec0bd"
        )

    def test_cells_k5_unchanged(self, capsys, tmp_path):
        # the cell vertices come from the paths of each shape's terminals
        path = tmp_path / "k5.graph"
        write_graph(complete_graph(5), path)
        code, out, _ = run(
            capsys, ["dissect", "--graph", str(path), "--c", "3,1,2,2", "--emit", "cells"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e23a00e85599ef7f902ac95c88214d7435d6186f49a2e4096c7c74d47c4a4f5b"
        )

    @pytest.mark.parametrize("nv, c", [(4, (3, 2, 2)), (5, (3, 1, 2, 2)), (3, (1, 1))])
    def test_cells_equal_the_whole_list(self, capsys, tmp_path, nv, c):
        # the cells are written one at a time; the bytes are those of one
        # json.dumps of the whole list
        path = tmp_path / "graph"
        write_graph(complete_graph(nv), path)
        argv = ["dissect", "--graph", str(path), "--c", ",".join(map(str, c)), "--emit", "cells"]
        code, out, _ = run(capsys, argv)
        payload = [
            {
                "leaf": cell.leaf_index,
                "leaf_composition": list(cell.leaf_composition),
                "vertices": [list(v) for v in cell.vertices],
            }
            for cell in unimodular_dissection(complete_graph(nv), c)
        ]
        assert code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_cell_formatter_matches_json_dumps(self):
        # the hand-written formatter against the encoder it replaces, one
        # vertex cache across all graphs, plus empty lists
        def dumps(cell):
            record = {
                "leaf": cell.leaf_index,
                "leaf_composition": list(cell.leaf_composition),
                "vertices": [list(v) for v in cell.vertices],
            }
            return json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n  ")

        vertex_json = {}
        cells = [
            SimplexCell(((0, 1), (1, 0)), leaf_index=7),
            SimplexCell((), leaf_index=0, leaf_composition=(2, 0)),
            SimplexCell(((),), leaf_index=1, leaf_composition=(0,)),
        ]
        for nv, top in ((3, 3), (4, 3), (5, 2)):
            for c in product(range(1, top + 1), repeat=nv - 1):
                cells += unimodular_dissection(complete_graph(nv), c)
        assert len(cells) > 1000
        for cell in cells:
            assert flowpoly.cli._cell_json(cell, vertex_json) == dumps(cell)

    def test_no_cells_is_an_empty_list(self, capsys, monkeypatch, k4_file):
        monkeypatch.setattr(flowpoly.cli, "iter_dissection_cells", lambda *args, **kwargs: iter(()))
        code, out, _ = run(capsys, ["dissect", "--graph", k4_file, "--c", "1,1,1", "--emit", "cells"])
        assert (code, out) == (0, json.dumps([], indent=2) + "\n")

    def test_cells_k6_unchanged(self, capsys, monkeypatch, tmp_path):
        # 5880 cells, streamed: the list of all cells is never built
        def refuse(*args, **kwargs):
            raise AssertionError("the cell list was built")

        monkeypatch.setattr(reduction, "unimodular_dissection", refuse)
        path = tmp_path / "k6.graph"
        write_graph(complete_graph(6), path)
        code, out, _ = run(
            capsys, ["dissect", "--graph", str(path), "--c", "2,2,2,2,2", "--emit", "cells"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "26dac3973aa5b32df9f22d33090624164c99e8b9ccd6b317888c41c6bc75772b"
        )

    def test_cells_walk_the_plain_tree_once(self, capsys, monkeypatch, k4_file):
        calls = []
        real = reduction._plain_tree

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(reduction, "_plain_tree", spy)
        code, out, _ = run(capsys, ["dissect", "--graph", k4_file, "--c", "3,2,2", "--emit", "cells"])
        assert code == 0 and len(json.loads(out)) == 22
        assert len(calls) == 1

    def test_node_cap_counts_walk_and_dissection(self, capsys, k4_file):
        # 4 walk nodes and 60 dissection nodes: one budget for both
        for emit in ("summary", "cells"):
            argv = ["dissect", "--graph", k4_file, "--c", "3,2,2", "--emit", emit]
            code, _, err = run(capsys, argv + ["--node-cap", "60"])
            assert code == 1 and "node cap" in err
            code, _, _ = run(capsys, argv + ["--node-cap", "64"])
            assert code == 0


class TestVerify:
    # instances at bounds 3/4/2: 12 graphs times a box of 3^2 netflows (eq2)
    # or 2^2 netflows or c vectors, and one per graph for census
    INSTANCES = {"eq2": 108, "eq1": 48, "thm41": 48, "census": 12, "dissection": 48,
                 "in-vector": 48}
    SMALL = ["--max-vertices", "3", "--max-edges", "4", "--max-netflow", "2"]

    def test_small_bounds_pass(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "eq2", "--max-vertices", "3", "--max-edges", "5",
             "--max-netflow", "2"],
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("suite", ["eq2", "eq1", "thm41"])
    def test_corrupt_formula_detected(self, capsys, spoil_formula, suite):
        spoil_formula(suite)
        code, out, _ = run(
            capsys,
            ["verify", "--suite", suite, "--max-vertices", "3", "--max-edges", "4",
             "--max-netflow", "1"],
        )
        assert code == 1
        assert "FAIL" in out and "counterexample" in out
        result = SUITES[suite](3, 4, 1)
        assert result.instances and len(result.failures) == result.instances
        assert all(failure["graph"]["vertices"] == 3 for failure in result.failures)

    def test_empty_family_warns(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "eq2", "--max-vertices", "2", "--max-edges", "4"]
        )
        assert code == 0
        assert "0 instances" in out

    def test_empty_netflow_box_warns(self, capsys):
        # eq1's heads run from 1, so max-netflow 0 leaves every graph's box empty
        code, out, _ = run(
            capsys, ["verify", "--suite", "eq1", "--max-vertices", "4", "--max-edges", "5",
                     "--max-netflow", "0"]
        )
        assert (code, out) == (0, "PASS eq1 (volume formula): 0 instances\n"
                                  "warning: 0 instances in the selected family bounds\n")

    def test_top_vertex_count_beyond_the_edges_finishes(self, capsys):
        # a family graph on nv vertices has at least nv - 1 edges, so 7/5
        # lists the graphs of 6/5; listing once filtered all 3^21
        # multiplicity vectors of the 7-vertex slice
        argv = ["verify", "--suite", "eq2", "--max-edges", "5", "--max-netflow", "0"]
        src = os.path.dirname(os.path.dirname(flowpoly.cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "flowpoly.cli", *argv, "--max-vertices", "7"],
            stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        code, out, _ = run(capsys, argv + ["--max-vertices", "6"])
        assert (proc.returncode, proc.stdout.decode()) == (code, out) == (
            0, "PASS eq2 (lattice-point formula): 419 instances\n"
        )

    def test_all_suites_small(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "all", "--max-vertices", "3", "--max-edges", "4",
             "--max-netflow", "1"],
        )
        assert code == 0
        assert out.count("PASS") == 6

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_each_suite_runs(self, capsys, suite):
        code, out, _ = run(capsys, ["verify", "--suite", suite, *self.SMALL])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"PASS {suite} (")
        assert lines[0].endswith(f": {self.INSTANCES[suite]} instances")

    SPOILED_SIDES = [
        ("census", "tree_census", lambda census: {**census, (9,): 1}),
        ("dissection", "certify_dissection_box", _failing_first_checks),
        ("in-vector", "verify_in_vector_bijection", _failing_report),
    ]

    @pytest.mark.parametrize("suite, side, spoil", SPOILED_SIDES,
                             ids=["census", "dissection", "in-vector"])
    def test_spoiled_side_fails_once(self, capsys, monkeypatch, suite, side, spoil):
        # the call counter lives in one process: each worker would spoil its
        # own first call
        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        real = getattr(flowpoly.verify, side)
        calls = []

        def spoiled_first(*args, **kwargs):
            calls.append(None)
            value = real(*args, **kwargs)
            return spoil(value) if len(calls) == 1 else value

        monkeypatch.setattr(flowpoly.verify, side, spoiled_first)
        code, out, _ = run(capsys, ["verify", "--suite", suite, *self.SMALL])
        assert code == 1
        summary, counterexample = out.splitlines()
        assert summary.startswith(f"FAIL {suite} (")
        assert summary.endswith(f": {self.INSTANCES[suite]} instances, 1 failures")
        failure = json.loads(counterexample.removeprefix("  counterexample: "))
        assert failure["graph"] == {"vertices": 3, "edges": [[1, 3], [2, 3]]}

    @pytest.mark.parametrize("suite, side, spoil", SPOILED_SIDES,
                             ids=["census", "dissection", "in-vector"])
    def test_spoiled_side_fails_once_in_parallel(self, capsys, monkeypatch, workers, suite,
                                                 side, spoil):
        # spoils the first instance of the first family graph, whichever
        # process runs it
        workers(2)
        first = DirectedMultigraph(3, ((1, 3), (2, 3)))
        real = getattr(flowpoly.verify, side)

        def spoiled_first(arg, *args, **kwargs):
            if side in ("tree_census", "certify_dissection_box"):  # the graph alone
                hit = arg == first
            else:  # the graph and c
                hit = (arg, tuple(args[0])) == (first, (1, 1))
            value = real(arg, *args, **kwargs)
            return spoil(value) if hit else value

        monkeypatch.setattr(flowpoly.verify, side, spoiled_first)
        code, out, _ = run(capsys, ["verify", "--suite", suite, *self.SMALL])
        assert code == 1
        summary, counterexample = out.splitlines()
        assert summary.startswith(f"FAIL {suite} (")
        assert summary.endswith(f": {self.INSTANCES[suite]} instances, 1 failures")
        failure = json.loads(counterexample.removeprefix("  counterexample: "))
        assert failure["graph"] == {"vertices": 3, "edges": [[1, 3], [2, 3]]}


class TestWorkerErrors:
    """An error in a worker's share of the family reaches the caller as it
    does in a serial run; the workers fixture checks that no child is left."""

    ARGV = ["verify", "--suite", "in-vector", "--max-vertices", "3", "--max-edges", "4",
            "--max-netflow", "1"]

    def spoil(self, monkeypatch, actions):
        """Run actions[i]() before checking family graph i; with two workers
        graph 1 is in the child's share and graphs 0 and 2 in the parent's."""
        graphs = list(iter_family(3, 4))
        real = flowpoly.verify.verify_in_vector_bijection

        def spoiled(graph, c):
            for index, action in actions.items():
                if graph == graphs[index]:
                    action()
            return real(graph, c)

        monkeypatch.setattr(flowpoly.verify, "verify_in_vector_bijection", spoiled)

    def test_first_error_by_graph_index(self, capsys, monkeypatch, workers):
        def raiser(exc):
            def action():
                raise exc
            return action

        self.spoil(monkeypatch, {1: raiser(NodeCapExceeded("node cap 7 exceeded at graph 1")),
                                 2: raiser(ValueError("graph 2"))})
        outcomes = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(Exception) as caught:
                run_in_vector_suite(3, 4, 1)
            outcomes.append((type(caught.value), str(caught.value), run(capsys, self.ARGV)))
        assert outcomes[0] == outcomes[1] == (
            NodeCapExceeded, "node cap 7 exceeded at graph 1",
            (1, "", "error: node cap 7 exceeded at graph 1\n"))

    def test_worker_dying_without_a_result(self, capsys, monkeypatch, workers):
        workers(2)
        self.spoil(monkeypatch, {1: lambda: os._exit(3)})
        with pytest.raises(ChildProcessError, match="exited with status 3 without a result"):
            run_in_vector_suite(3, 4, 1)
        assert run(capsys, self.ARGV) == (
            1, "", "error: verify worker exited with status 3 without a result\n")

    def test_interrupt_kills_the_workers(self, monkeypatch, workers):
        def interrupt():
            raise KeyboardInterrupt

        workers(2)
        self.spoil(monkeypatch, {1: lambda: time.sleep(60), 2: interrupt})
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_in_vector_suite(3, 4, 1)
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_bad_worker_count(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FLOWPOLY_WORKERS", value)
        code, out, err = run(capsys, self.ARGV)
        assert (code, out) == (1, "")
        assert err == f"error: FLOWPOLY_WORKERS={value!r} is not a positive integer\n"


class TestErrors:
    """Library errors end in one `error:` line on stderr and exit code 1."""

    def test_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "path3000.graph"
        write_graph(path_graph(3000), path)
        netflow = ",".join(["1"] + ["0"] * 2998 + ["-1"])
        code, out, err = run(capsys, ["kostant", "--graph", str(path), "--netflow", netflow])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err

    @pytest.mark.parametrize("mult", ["2000000", "9" * 30], ids=["2e6", "30 digits"])
    def test_huge_multiplicity_refused_before_expanding(self, capsys, tmp_path, mult):
        path = tmp_path / "huge.graph"
        path.write_text(f"2\n1 2 {mult}\n")
        tracemalloc.start()
        try:
            result = run(capsys, ["reduce", "--graph", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (1, "", f"error: {path}: line 2: the file asks for more than 100000 edges\n")
        assert peak < 1_000_000

    def test_node_cap_in_verify(self, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--suite", "census", "--max-vertices", "4", "--node-cap", "1"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "node cap" in err

    def test_huge_vertex_range_with_one_edge(self, capsys, tmp_path):
        # refused by its edge count, before any per-vertex set is built
        path = tmp_path / "sparse.graph"
        path.write_text("1000000\n1 2\n")
        code, out, err = run(capsys, ["reduce", "--graph", str(path)])
        assert (code, out, err) == (1, "", "error: graph must be connected\n")

    def test_value_error(self, capsys, k4_file):
        code, _, err = run(capsys, ["dissect", "--graph", k4_file, "--c", "1,0,1"])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["kostant", "--netflow", "1,x"],
         "could not parse netflow '1,x'; expected comma-separated integers"),
        (["kostant", "--netflow", "1,,0,-1"],
         "could not parse netflow '1,,0,-1'; expected comma-separated integers"),
        (["kostant", "--netflow", "1,0,0,-1,"],
         "could not parse netflow '1,0,0,-1,'; expected comma-separated integers"),
        (["kostant", "--netflow", "1,0,0,0"], "netflow entries must sum to zero, got sum 1"),
        (["dissect", "--c", "1,,1"], "could not parse c '1,,1'; expected comma-separated integers"),
        (["lidskii", "--mode", "c-form", "--c", "1,1,1,"],
         "could not parse c '1,1,1,'; expected comma-separated integers"),
        (["reduce", "--c", ",1,1,1"], "could not parse c ',1,1,1'; expected comma-separated integers"),
        (["lidskii", "--mode", "volume", "--netflow=-1,0,0"],
         "netflow entry 0 is negative; nice chamber required"),
        (["reduce", "--node-cap", "0"], "--node-cap='0' is not a positive integer"),
        (["dissect", "--c", "1,1,1", "--node-cap", "-5"],
         "--node-cap='-5' is not a positive integer"),
        (["verify", "--node-cap", "x"], "--node-cap='x' is not a positive integer"),
    ], ids=["netflow not integers", "netflow empty token", "netflow trailing comma",
            "netflow sum not zero", "c empty token", "c trailing comma", "c leading comma",
            "volume outside the chamber", "cap zero", "cap negative", "cap not an integer"])
    def test_bad_input(self, capsys, k4_file, argv, message):
        if argv[0] != "verify":
            argv = [argv[0], "--graph", k4_file, *argv[1:]]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_failed_fork(self, capsys, monkeypatch, workers):
        # the workers fixture checks that no child is left
        refused = BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        def fork():
            raise refused

        workers(2)
        monkeypatch.setattr(os, "fork", fork)
        assert run(capsys, TestWorkerErrors.ARGV) == (1, "", f"error: {refused}\n")

    @pytest.mark.parametrize("argv", [
        ["dissect", "--c", "1,1,1"],
        ["reduce", "--emit", "dot"],
        ["verify", "--suite", "census", "--max-vertices", "3"],
    ], ids=["dissect", "reduce", "verify"])
    def test_closed_output_pipe(self, k4_file, argv):
        # the reader is gone before the command writes anything
        if argv[0] != "verify":
            argv = [argv[0], "--graph", k4_file, *argv[1:]]
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        src = os.path.dirname(os.path.dirname(flowpoly.__file__))
        try:
            proc = subprocess.run([sys.executable, "-m", "flowpoly.cli", *argv], stdout=write_fd,
                                  stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                                  timeout=120)
        finally:
            os.close(write_fd)
        assert (proc.returncode, proc.stderr) == (1, b"")


# Graph file text: arbitrary text, or a header and edge lines of small
# integers mixed with lines of tokens that int() reads in surprising ways or
# not at all.  The integers stay small, so a parsed graph is small and its
# reduction is quick.
SMALL_INT = st.integers(-1, 6).map(str)
TOKEN_LINE = st.lists(
    st.one_of(SMALL_INT, st.sampled_from(["0", "-0", "+2", "1_0", "\u0663", "1.5", "x", "#"])),
    max_size=4,
).map(" ".join)
EDGE_LINE = st.tuples(
    st.integers(0, 4).map(str), st.integers(2, 6).map(str), st.sampled_from(["", "", "", "2", "0"])
).map(" ".join)
GRAPH_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    st.tuples(
        st.one_of(st.integers(1, 6).map(str), st.integers(1, 6).map("0 {}".format), TOKEN_LINE),
        # mostly edge lines, so that some files parse and reach the reduction
        st.lists(st.one_of(EDGE_LINE, EDGE_LINE, EDGE_LINE, EDGE_LINE, TOKEN_LINE), max_size=8),
    ).map(lambda parts: "\n".join([parts[0], *parts[1]])),
)


class TestGraphFileFuzz:
    """Any graph file text gives a graph or a clean error."""

    @settings(deadline=None, max_examples=150)
    @given(GRAPH_TEXT)
    def test_parse_graph(self, text):
        try:
            graph = parse_graph(text)
        except GraphFormatError:
            return
        assert parse_graph(format_graph(graph)) == graph

    @settings(deadline=None, max_examples=60)
    @given(GRAPH_TEXT)
    def test_reduce_exits_cleanly(self, text):
        try:
            small = parse_graph(text).vertex_count <= 8
        except GraphFormatError:
            small = True
        if not small:  # arbitrary text may name a huge vertex range
            return
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.graph"
            path.write_text(text, encoding="utf-8")
            argv = ["reduce", "--graph", str(path), "--node-cap", "300"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Arguments of `dissect` and `verify --suite dissection`: c lists of small
# integers mixed with tokens that int() reads in surprising ways or not at
# all, node caps from tiny to ample, and small family bounds.  The c entries
# stay small: `--emit cells` and the suite build every staircase and cell,
# which grow with the square of an entry or faster, and the node cap does
# not bound their size; the summary only counts them.
C_TOKEN = st.one_of(st.integers(-1, 4).map(str),
                    st.sampled_from(["", "0", "-0", "+2", " 2", "1_0", "\u0663", "1.5", "x"]))
C_TEXT = st.one_of(st.lists(st.integers(1, 4).map(str), min_size=2, max_size=3).map(",".join),
                   st.lists(C_TOKEN, max_size=5).map(",".join))
NODE_CAP = st.one_of(st.none(), st.integers(-1, 80).map(str), st.just("1000"),
                     st.sampled_from(["", "x", "1e3", "2.5"]))
DISSECT_ARGV = st.tuples(
    st.just("dissect"), st.sampled_from(["k4", "path3"]), C_TEXT, NODE_CAP,
    st.sampled_from(["summary", "cells"]),
)
VERIFY_ARGV = st.tuples(
    st.just("verify"), st.one_of(st.integers(3, 4), st.integers(-1, 4)),
    st.one_of(st.integers(3, 5), st.integers(-1, 5)), st.one_of(st.integers(1, 2), st.integers(-1, 2)),
    NODE_CAP,
)


class TestDissectionArgumentFuzz:
    """Any arguments of the dissection commands give an answer or one
    clean error line."""

    @settings(deadline=None, max_examples=80)
    @given(st.one_of(DISSECT_ARGV, VERIFY_ARGV))
    def test_exits_cleanly(self, args):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if args[0] == "dissect":
                _, name, c, cap, emit = args
                path = Path(tmp) / f"{name}.graph"
                write_graph(complete_graph(4) if name == "k4" else path_graph(3), path)
                argv = ["dissect", "--graph", str(path), f"--c={c}", "--emit", emit]
            else:
                _, vertices, edges, entries, cap = args
                argv = ["verify", "--suite", "dissection", f"--max-vertices={vertices}",
                        f"--max-edges={edges}", f"--max-netflow={entries}"]
            if cap is not None:
                argv.append(f"--node-cap={cap}")
            env = {**os.environ, "FLOWPOLY_WORKERS": "1"}
            with unittest.mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            assert err.getvalue() == "", argv
        else:
            assert code == 1, argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv

    def test_reciprocity_guard_is_one_error_line(self, capsys, monkeypatch):
        def broken(counter, sources):
            raise ArithmeticError("reciprocity gives L(1) = 3, but the unit netflow has 2 flows")
            yield

        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        monkeypatch.setattr(flowpoly.geometry, "source_split_volumes", broken)
        code, out, err = run(capsys, ["verify", "--suite", "dissection", "--max-vertices", "3"])
        assert (code, out) == (1, "")
        assert err == "error: reciprocity gives L(1) = 3, but the unit netflow has 2 flows\n"


# each bound is also drawn from its upper end, where the family is not empty
VERIFY_BOUNDS = st.tuples(
    st.sampled_from([*SUITES, "all"]), st.integers(-1, 4) | st.integers(3, 4),
    st.integers(-1, 5) | st.integers(3, 5), st.integers(-2, 2) | st.integers(1, 2),
    st.none() | st.integers(1, 40),
)
PASS_LINE = re.compile(r"PASS [^:]+: (\d+) instances")


class TestVerifyBoundsFuzz:
    """Any family bounds and node cap given to `verify` pass every suite
    asked for or stop at one clean error line; no suite fails."""

    @settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(VERIFY_BOUNDS)
    @example(("all", 4, 5, 2, None))
    @example(("all", 4, 5, 2, 1))
    @example(("dissection", 3, 3, 1, 3))
    def test_passes_or_one_error_line(self, capsys, monkeypatch, bounds):
        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        suite, vertices, edges, entries, cap = bounds
        argv = ["verify", "--suite", suite, f"--max-vertices={vertices}", f"--max-edges={edges}",
                f"--max-netflow={entries}"] + ([] if cap is None else [f"--node-cap={cap}"])
        code, out, err = run(capsys, argv)
        suites = len(SUITES) if suite == "all" else 1
        lines = out.splitlines()
        passes = [PASS_LINE.fullmatch(line) for line in lines[:suites]]
        if code == 0:
            assert err == "" and all(passes) and len(passes) == suites, argv
            warning = ["warning: 0 instances in the selected family bounds"]
            assert lines[suites:] == (warning if not sum(int(m[1]) for m in passes) else []), argv
        else:
            assert code == 1, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            # the suites before the one that stopped passed
            assert len(lines) < suites and all(passes), argv


# c lists for `reduce --c` and `lidskii --mode c-form`: the dissection's
# tokens, plus entries up to a million.  Neither command builds anything the
# size of an entry: the census and the DOT read the plain tree, and the
# c-form weights are binomials.
LARGE_C_TEXT = st.one_of(
    C_TEXT,
    st.lists(st.integers(1, 10**6).map(str), min_size=2, max_size=3).map(",".join),
    st.lists(st.one_of(C_TOKEN, st.integers(1, 10**6).map(str)), max_size=5).map(",".join),
)
REDUCE_ARGV = st.tuples(
    st.just("reduce"), st.sampled_from(["k4", "path3"]), LARGE_C_TEXT, NODE_CAP,
    st.sampled_from(["census", "json", "dot"]),
)
C_FORM_ARGV = st.tuples(
    st.just("lidskii"), st.sampled_from(["k4", "path3"]), LARGE_C_TEXT, st.none(),
    st.sampled_from(["human", "json"]),
)


class TestSourceArgumentFuzz:
    """Any c given to `reduce` or to the c-form count gives an answer or one
    clean error line, and a reduction at c prints what the plain one does,
    the source prefixes of the DOT box labels aside."""

    @staticmethod
    def run_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(REDUCE_ARGV, C_FORM_ARGV))
    @example(("reduce", "k4", "1,1000000,1", None, "dot"))
    @example(("reduce", "k4", "1000000,2,1", "4", "census"))
    @example(("lidskii", "k4", "1000000,1000000,1000000", None, "human"))
    def test_exits_cleanly(self, args):
        command, name, c, cap, emit = args
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.graph"
            write_graph(complete_graph(4) if name == "k4" else path_graph(3), path)
            argv = [command, "--graph", str(path), f"--c={c}", "--emit", emit]
            if command == "lidskii":
                argv += ["--mode", "c-form"]
            if cap is not None:
                argv.append(f"--node-cap={cap}")
            code, out, err = self.run_main(argv)
            if command == "reduce":
                plain = self.run_main(["reduce", "--graph", str(path), "--emit", emit])[1]
        if code:
            assert code == 1, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            return
        assert err == "", argv
        if command == "reduce":
            assert re.sub(r'label="(0→\d+( ×\d+)?, )+', 'label="', out) == plain, argv


# netflows for `kostant`, `ehrhart` and `lidskii --mode volume|count`:
# entries -5..50, from two entries short of the graph's vertex count to one
# past it
NETFLOW_GRAPHS = {"k3": complete_graph(3), "k4": complete_graph(4), "p3": path_graph(3)}
NETFLOW_COMMANDS = ("kostant", "ehrhart", "lidskii --mode=volume", "lidskii --mode=count")


@st.composite
def netflow_argv(draw):
    command = draw(st.sampled_from(NETFLOW_COMMANDS))
    name = draw(st.sampled_from(sorted(NETFLOW_GRAPHS)))
    n = NETFLOW_GRAPHS[name].vertex_count
    entries = draw(st.lists(st.integers(-5, 50), min_size=n - 2, max_size=n + 1))
    return command, name, ",".join(map(str, entries))


# three-vertex multigraphs whose count at (p, q, -p - q) is one
# Chu-Vandermonde binomial C(s + 4, 4): "a3" has 3 edges 1->2, 2 edges 1->3
# and one edge 2->3, so s = p for q >= 0; "b3" has one edge 1->2, 2 edges
# 1->3 and 3 edges 2->3, so s = p + q for q <= 0 (no flow if s < 0)
VANDERMONDE_GRAPHS = {
    "a3": DirectedMultigraph(3, ((1, 2),) * 3 + ((1, 3),) * 2 + ((2, 3),)),
    "b3": DirectedMultigraph(3, ((1, 2),) + ((1, 3),) * 2 + ((2, 3),) * 3),
}


@st.composite
def vandermonde_netflows(draw):
    name = draw(st.sampled_from(sorted(VANDERMONDE_GRAPHS)))
    p = draw(st.integers(0, 10**9))
    q = draw(st.integers(0, 10**9)) * (1 if name == "a3" else -1)
    return name, [p, q] + draw(st.sampled_from(([], [-p - q])))


class TestNetflowArgumentFuzz:
    """Any netflow given to `kostant`, `ehrhart` or `lidskii --mode
    volume|count` gives one value or one clean error line."""

    VALUE = {"kostant": r"\d+\n", "ehrhart": r"-?\d+(/\d+)?(, -?\d+(/\d+)?)*\n", "lidskii": r"\d+\n"}

    @staticmethod
    def run_on(graph, name, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.graph"
            write_graph(graph, path)
            return TestSourceArgumentFuzz.run_main([*argv, "--graph", str(path)])

    @settings(deadline=None, max_examples=150)
    @given(netflow_argv())
    @example(("ehrhart", "k4", "50,50,50"))
    @example(("kostant", "p3", "-5,50,-45"))
    @example(("lidskii --mode=count", "k4", "50,50,50"))
    @example(("lidskii --mode=volume", "k3", "0,-5"))
    def test_exits_cleanly(self, args):
        command, name, netflow = args
        argv = [*command.split(), f"--netflow={netflow}"]
        code, out, err = self.run_on(NETFLOW_GRAPHS[name], name, argv)
        if code:
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert err == "" and re.fullmatch(self.VALUE[argv[0]], out), argv
        if command == "lidskii --mode=count" and not code:
            # in the nice chamber the Lidskii count is the flow count
            assert self.run_on(NETFLOW_GRAPHS[name], name, ["kostant", argv[-1]]) == (0, out, ""), argv

    @settings(deadline=None, max_examples=50)
    @given(vandermonde_netflows())
    @example(("a3", [10**9, 10**9, -2 * 10**9]))
    @example(("b3", [10**9, -10**9]))
    @example(("b3", [5, -6]))
    def test_multigraph_counts_match_vandermonde(self, args):
        name, entries = args
        argv = ["kostant", f"--netflow={','.join(map(str, entries))}"]
        s = entries[0] + (entries[1] if name == "b3" else 0)
        expected = comb(s + 4, 4) if s >= 0 else 0
        assert self.run_on(VANDERMONDE_GRAPHS[name], name, argv) == (0, f"{expected}\n", ""), argv
