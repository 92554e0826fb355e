"""Verify family enumeration and its split over worker processes."""

import hashlib
import os
import subprocess
import sys
import threading
from itertools import product
from math import factorial

import pytest

import flowpoly.verify
from flowpoly.multigraph import DirectedMultigraph, degree_stats
from flowpoly.verify import SUITES, iter_family


def reference_family(max_vertices, max_edges, mult_cap=2):
    """Build every multigraph in the bounds, then drop those with a non-sink
    vertex of outdegree 0 or that are disconnected."""
    for nv in range(3, max_vertices + 1):
        pairs = [(i, j) for i in range(1, nv + 1) for j in range(i + 1, nv + 1)]
        for mults in product(range(mult_cap + 1), repeat=len(pairs)):
            if not nv - 1 <= sum(mults) <= max_edges:
                continue
            edges = tuple(pair for pair, k in zip(pairs, mults) for _ in range(k))
            graph = DirectedMultigraph(nv, edges)
            if 0 in degree_stats(graph).outdeg[:-1] or not graph.is_connected():
                continue
            yield graph


def test_iter_family_matches_reference_filter():
    got = list(iter_family(5, 6))
    assert got == list(reference_family(5, 6))
    assert len(got) == 988


def test_iter_family_order_is_pinned():
    # digest of the enumeration made by filtering every multiplicity vector
    h = hashlib.sha256()
    for graph in iter_family(5, 8):
        h.update(f"{graph.vertex_count} {graph.edges}\n".encode())
    assert h.hexdigest() == "0c862a1b94a5a3de9be2edfe28299608c8fc103f34f389a3e7b5e5e5ace9925c"


def test_iter_family_graphs_are_connected():
    graphs = list(iter_family(6, 7))
    assert len(graphs) == 10130
    assert all(graph.is_connected() for graph in graphs)


@pytest.mark.parametrize("nv", [3, 4, 5, 6, 7])
def test_iter_family_spanning_slice(nv):
    # with nv - 1 edges, each non-sink vertex i has one edge to one of the
    # nv - i vertices above it
    graphs = [g for g in iter_family(nv, nv - 1) if g.vertex_count == nv]
    assert len(graphs) == factorial(nv - 1)
    assert all(g.edge_count == nv - 1 for g in graphs)


# --- the family split over forked workers --------------------------------


# small bounds with several graphs per share; census takes no third bound.
# A corrupt case spoils the suite's formula side, so every instance fails.
SPLIT_CASES = [(name, (4, 5) if name == "census" else (4, 5, 1), False) for name in SUITES] + [
    (name, (3, 5, 1), True) for name in ("eq2", "eq1", "thm41")
]


@pytest.mark.parametrize("name, bounds, corrupt", SPLIT_CASES,
                         ids=[f"{n}{'-corrupt' if o else ''}" for n, _, o in SPLIT_CASES])
def test_serial_and_parallel_results_equal(workers, spoil_formula, name, bounds, corrupt):
    if corrupt:
        spoil_formula(name)
    workers(1)
    serial = SUITES[name](*bounds)
    workers(2)
    parallel = SUITES[name](*bounds)
    assert parallel == serial
    assert serial.instances > 0
    assert len(serial.failures) == (serial.instances if corrupt else 0)


# `flowpoly verify` with the LidskiiTerms box method named by argv[1] made
# one too large at every point, as the spoil_formula fixture does it
SPOILED_VERIFY = """
import sys
import flowpoly.cli
from flowpoly.lidskii import LidskiiTerms

real = getattr(LidskiiTerms, sys.argv[1])
setattr(LidskiiTerms, sys.argv[1], lambda self, box: [v + 1 for v in real(self, box)])
sys.exit(flowpoly.cli.main(["verify", *sys.argv[2:]]))
"""


def cli_stdout(workers, *args, spoiled=None):
    """stdout of `flowpoly verify` in a fresh interpreter that writes to a
    pipe, where the output is block buffered when a worker forks; spoiled
    names a LidskiiTerms method to spoil first."""
    src = os.path.dirname(os.path.dirname(flowpoly.__file__))
    env = {**os.environ, "PYTHONPATH": src, "FLOWPOLY_WORKERS": str(workers)}
    command = ["-m", "flowpoly.cli", "verify"] if spoiled is None else ["-c", SPOILED_VERIFY, spoiled]
    proc = subprocess.run([sys.executable, *command, *args],
                          stdout=subprocess.PIPE, env=env, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args, spoiled", [
    (["--suite", "all", "--max-vertices", "4", "--max-edges", "5", "--max-netflow", "1"], None),
    (["--suite", "eq2", "--max-vertices", "4", "--max-edges", "4", "--max-netflow", "1"], "counts"),
], ids=["all", "corrupt"])
def test_cli_output_is_byte_identical(args, spoiled):
    serial = cli_stdout(1, *args, spoiled=spoiled)
    assert serial[0] == (0 if spoiled is None else 1)
    assert cli_stdout(2, *args, spoiled=spoiled) == serial
    lines = serial[1].decode().splitlines()
    assert lines and len(set(lines)) == len(lines)


class TestWorkerCount:
    """_worker_count reads FLOWPOLY_WORKERS and the usable CPUs; it starts
    no process."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delenv("FLOWPOLY_WORKERS", raising=False)

    def test_unset_uses_the_usable_cpus(self):
        assert flowpoly.verify._worker_count(100) == 4
        assert flowpoly.verify._worker_count(3) == 3
        assert flowpoly.verify._worker_count(0) == 1

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert flowpoly.verify._worker_count(100) == 3

    def test_one_is_serial(self, monkeypatch):
        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        assert flowpoly.verify._worker_count(100) == 1

    def test_large_values_are_clamped(self, monkeypatch):
        monkeypatch.setenv("FLOWPOLY_WORKERS", "100000")
        assert flowpoly.verify._worker_count(100) == 4
        assert flowpoly.verify._worker_count(2) == 2

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert flowpoly.verify._worker_count(100) == 1

    def test_serial_while_other_threads_run(self):
        # a forked child would hold copies of their locks in whatever state
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert flowpoly.verify._worker_count(100) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert flowpoly.verify._worker_count(100) == 4

    @pytest.mark.parametrize("value", ["0", "-2", "x", ""])
    def test_bad_values_are_errors(self, monkeypatch, value):
        monkeypatch.setenv("FLOWPOLY_WORKERS", value)
        with pytest.raises(ValueError, match="FLOWPOLY_WORKERS"):
            flowpoly.verify._worker_count(100)
