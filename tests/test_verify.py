"""Verify family enumeration."""

from itertools import product

from flowpoly.multigraph import DirectedMultigraph, degree_stats
from flowpoly.verify import iter_family


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
