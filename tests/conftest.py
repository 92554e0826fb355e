import os

import pytest

import flowpoly.verify
from flowpoly.kostant import FlowCounter
from flowpoly.lidskii import LidskiiTerms
from flowpoly.multigraph import attach_source
from flowpoly.reduction import ProvenancedGraph, enumerate_noncrossing_trees, reduce_at_vertex

# the LidskiiTerms box method that gives the formula side of each Lidskii suite
FORMULA_SIDES = {"eq2": "counts", "eq1": "volumes", "thm41": "c_form_counts"}


class SpyCounter(FlowCounter):
    """Records the packed root state of every count read through the
    counter's reader, which count and LidskiiTerms both build."""

    def __init__(self, graph):
        super().__init__(graph)
        self.asked = []

    def _packing(self, bound):
        recursion, base, steps = super()._packing(bound)

        def spy(pos, g, packed):
            self.asked.append(packed)
            return recursion(pos, g, packed)

        return spy, base, steps


@pytest.fixture()
def workers(monkeypatch):
    """A setter: workers(n) sets FLOWPOLY_WORKERS to n on a box that reports
    n usable CPUs, so that the verify suites really split over n processes.
    When the test ends, no child process may be left unreaped."""

    def use(n):
        monkeypatch.setenv("FLOWPOLY_WORKERS", str(n))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        assert flowpoly.verify._worker_count(10) == n

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def spoil_formula(monkeypatch):
    """A setter: spoil_formula(suite) makes the formula side of the eq2,
    eq1 or thm41 suite one too large at every point of every box for the
    rest of the test.  Forked verify workers inherit the patch."""

    def spoil(suite):
        name = FORMULA_SIDES[suite]
        real = getattr(LidskiiTerms, name)
        monkeypatch.setattr(LidskiiTerms, name, lambda self, box: [v + 1 for v in real(self, box)])

    return spoil


def augmented_levels(graph, c):
    """The source tree at c, walked on the source-augmented graph itself:
    the reference for the plain tree lifted.  From the root
    attach_source(graph, c), each node is reduced at n, ..., 2 in turn over
    its non-source in-edges and all its out-edges, both by decreasing edge
    length, ties by index.  Returns the nodes level by level, children in
    noncrossing-tree order, so the last level holds the leaves in the order
    of the depth-first walk."""
    levels = [[ProvenancedGraph.as_root(attach_source(graph, c))]]
    for vertex in range(graph.last_vertex - 1, 1, -1):
        level = []
        for node in levels[-1]:
            edges = node.graph.edges
            order = sorted(range(len(edges)), key=lambda k: (edges[k][0] - edges[k][1], k))
            inc = tuple(k for k in order if edges[k][1] == vertex and edges[k][0] != 0)
            out = tuple(k for k in order if edges[k][0] == vertex)
            for tree in enumerate_noncrossing_trees(len(inc) + 1, len(out)):
                level.append(reduce_at_vertex(node, vertex, inc, out, tree))
        levels.append(level)
    return levels
