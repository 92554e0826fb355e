"""Command-line interface: outputs, exit codes, JSON round trips."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flowpoly.verify
from flowpoly.cli import main
from flowpoly.multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    complete_graph,
    format_graph,
    parse_graph,
    path_graph,
    write_graph,
)
from flowpoly.reduction import NodeCapExceeded, census_from_json
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

    def test_bad_netflow_length(self, k4_file):
        with pytest.raises(SystemExit):
            main(["kostant", "--graph", k4_file, "--netflow", "1,0"])

    @pytest.mark.parametrize("name", ["missing.graph", "."])
    def test_unreadable_graph_file(self, tmp_path, name):
        with pytest.raises(SystemExit, match="^error: cannot read graph file .*: [A-Z]"):
            main(["reduce", "--graph", str(tmp_path / name)])

    def test_bad_graph_file(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("3\n1 two\n")
        with pytest.raises(SystemExit, match="line 2"):
            main(["kostant", "--graph", str(bad), "--netflow", "1,0,-1"])


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

    def test_disconnected_rejected(self, tmp_path):
        f = tmp_path / "disc.graph"
        f.write_text("4\n1 2\n3 4\n")
        with pytest.raises(SystemExit, match="connected"):
            main(["ehrhart", "--graph", str(f), "--netflow", "1,-1,1"])


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

    def test_c_form_requires_c(self, k4_file):
        with pytest.raises(SystemExit):
            main(["lidskii", "--graph", k4_file, "--mode", "c-form", "--netflow", "1,0,0"])


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
        assert census_from_json(data["census"]) == {(2, 1, 0): 1, (3, 0, 0): 1}

    def test_path_single_leaf(self, capsys, path3_file):
        code, out, _ = run(capsys, ["reduce", "--graph", path3_file])
        assert code == 0 and "leaves: 1" in out

    def test_with_source(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file, "--c", "3,2,2", "--emit", "json"])
        assert code == 0
        assert census_from_json(json.loads(out)["census"]) == {(2, 1, 0): 1, (3, 0, 0): 1}

    def test_dot(self, capsys, k4_file):
        code, out, _ = run(capsys, ["reduce", "--graph", k4_file, "--emit", "dot"])
        assert code == 0
        assert out.startswith("digraph reduction_tree")

    def test_dot_k5_unchanged(self, capsys, tmp_path):
        # pins the breadth-first node order of ReductionTree.nodes(), which
        # numbers the DOT nodes
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

    def test_env_var_node_cap(self, capsys, k4_file, monkeypatch):
        monkeypatch.setenv("FLOWPOLY_NODE_CAP", "2")
        code, _, err = run(capsys, ["reduce", "--graph", k4_file])
        assert code == 1 and "node cap" in err


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
    def test_corrupt_formula_detected(self, capsys, suite):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", suite, "--max-vertices", "3", "--max-edges", "4",
             "--max-netflow", "1", "--debug-corrupt-formula"],
        )
        assert code == 1
        assert "FAIL" in out and "counterexample" in out
        result = SUITES[suite](3, 4, 1, corrupt=True)
        assert result.instances and len(result.failures) == result.instances
        assert all(failure["graph"]["vertices"] == 3 for failure in result.failures)

    def test_empty_family_warns(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "eq2", "--max-vertices", "2", "--max-edges", "4"]
        )
        assert code == 0
        assert "0 instances" in out

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
        ("census", "leaf_census", lambda census: {**census, (9,): 1}),
        ("dissection", "verify_dissection", _failing_report),
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
            if side == "leaf_census":  # the leaves of one graph's tree
                arg = list(arg)
                hit = arg[0].root == first
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

    def test_worker_dying_without_a_result(self, monkeypatch, workers):
        workers(2)
        self.spoil(monkeypatch, {1: lambda: os._exit(3)})
        with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
            run_in_vector_suite(3, 4, 1)

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
                try:
                    code = main(argv)
                except SystemExit as exc:
                    # the interpreter prints a message code on stderr, exit 1
                    assert isinstance(exc.code, str)
                    code = 1
                    err.write(exc.code + "\n")
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
