"""Graph representations, degree statistics, constructions, file format."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from flowpoly import multigraph
from flowpoly.multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    NetflowVector,
    apply_incidence,
    attach_source,
    build_gm,
    checked_degree_stats,
    complete_graph,
    degree_stats,
    format_graph,
    parse_graph,
    path_graph,
)


def rational_rank(rows):
    """Row rank over the rationals, by plain Gaussian elimination; the
    tests' own reference, independent of the library."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        base = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][j] != 0:
                f = work[i][j] / base[j]
                work[i] = [a - f * b for a, b in zip(work[i], base)]
        rank += 1
    return rank


class TestDirectedMultigraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedMultigraph(3, ((2, 1),))  # tail >= head
        with pytest.raises(ValueError):
            DirectedMultigraph(3, ((1, 1),))  # loop
        with pytest.raises(ValueError):
            DirectedMultigraph(3, ((1, 4),))  # out of range
        with pytest.raises(ValueError):
            DirectedMultigraph(3, ((0, 1),))  # 0 not allowed with first_vertex=1

    def test_non_integer_endpoints_refused(self):
        # int() would truncate (1, 2.9) to the edge (1, 2)
        with pytest.raises(ValueError, match=r"^edge 0 entry 1 = 2\.9 is not an integer$"):
            DirectedMultigraph(3, ((1, 2.9), (2, 3)))
        with pytest.raises(ValueError, match="edge 1 entry 0"):
            DirectedMultigraph(3, ((1, 2), (Fraction(2), 3)))
        with pytest.raises(ValueError, match="is not an integer"):
            DirectedMultigraph(3, ((1, "2"),))
        with pytest.raises(TypeError):
            DirectedMultigraph(3, (1, 2))  # not pairs: no integer question to answer

    def test_integer_types_accepted(self):
        class Index:
            def __index__(self):
                return 3

        assert DirectedMultigraph(3, ((True, Index()),)).edges == ((1, 3),)

    def test_parallel_edges_distinct_by_index(self):
        g = DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3)))
        assert g.edge_count == 3
        assert g.out_edges_at(1) == (0, 1)
        assert g.in_edges_at(3) == (2,)

    def test_connectivity(self):
        assert complete_graph(4).is_connected()
        assert not DirectedMultigraph(4, ((1, 2), (3, 4))).is_connected()
        assert DirectedMultigraph(1, ()).is_connected()

    def test_too_few_edges_are_disconnected_at_once(self):
        # a connected graph has a spanning tree of vertex_count - 1 edges;
        # fewer edges answer False before any per-vertex set is built
        assert not DirectedMultigraph(3, ((1, 2),)).is_connected()
        assert path_graph(5).is_connected()
        sparse = DirectedMultigraph(10**6, ((1, 2),))
        tracemalloc.start()
        try:
            assert not sparse.is_connected()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000


def bfs_components(vertices, edges):
    """Connected components of the underlying undirected multigraph by
    breadth-first search; the tests' own reference."""
    neighbours = {v: [] for v in vertices}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, components = set(), 0
    for start in vertices:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        for v in queue:
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return components


def small_multigraphs():
    """Every multigraph on 2-5 vertices with edge multiplicities at most 2
    and at most 7 edges, disconnected ones included, in canonical and in
    reversed edge order, on 1..k and on the 0-based vertices of the source
    form."""
    for nv in range(2, 6):
        pairs = list(combinations(range(1, nv + 1), 2))
        for mult in product(range(3), repeat=len(pairs)):
            if sum(mult) > 7:
                continue
            edges = [pair for pair, m in zip(pairs, mult) for _ in range(m)]
            for order in (edges, edges[::-1]):
                yield DirectedMultigraph(nv, tuple(order))
                shifted = tuple((a - 1, b - 1) for a, b in order)
                yield DirectedMultigraph(nv, shifted, first_vertex=0)


class TestSpanningForest:
    def test_connectivity_matches_reference_bfs(self):
        graphs = connected = 0
        for g in small_multigraphs():
            components = bfs_components(g.vertices, g.edges)
            assert g.is_connected() == (components == 1), g
            graphs += 1
            connected += components == 1
        assert 0 < connected < graphs

    def test_cotree_complement_is_a_spanning_forest(self):
        for g in small_multigraphs():
            cotree = set(g.cotree())
            forest = [e for k, e in enumerate(g.edges) if k not in cotree]
            components = bfs_components(g.vertices, g.edges)
            assert bfs_components(g.vertices, forest) == components
            assert len(forest) == g.vertex_count - components

    def test_cotree_follows_edge_order(self):
        g = DirectedMultigraph(3, ((1, 2), (2, 3), (1, 2), (1, 3)))
        assert g.cotree() == (2, 3)
        assert DirectedMultigraph(1, ()).cotree() == ()


class TestDegreeStats:
    def test_complete_graph(self):
        stats = degree_stats(complete_graph(4))
        assert stats.outdeg == (3, 2, 1, 0)
        assert stats.out_shift == (2, 1, 0)
        assert stats.indeg == (0, 1, 2, 3)
        assert stats.in_shift == (-1, 0, 1)

    def test_single_edge(self):
        stats = degree_stats(DirectedMultigraph(2, ((1, 2),)))
        assert stats.outdeg == (1, 0)
        assert stats.out_shift == (0,)

    def test_gm_indegree(self):
        g = build_gm((4, 1, 1))
        stats = degree_stats(g)
        assert stats.indeg[-1] == 6
        assert len(stats.in_shift) == 3  # sink excluded

    def test_degree_sums(self):
        for g in (complete_graph(5), build_gm((2, 3, 1)), path_graph(4)):
            stats = degree_stats(g)
            assert sum(stats.outdeg) == sum(stats.indeg) == g.edge_count

    def test_out_shift_identity(self):
        # sum of (outdeg - 1) over non-sink vertices is |E| - n when every
        # non-sink vertex has an outgoing edge
        for g in (complete_graph(4), build_gm((2, 2)), path_graph(5)):
            n = g.vertex_count - 1
            assert sum(degree_stats(g).out_shift) == g.edge_count - n


def connectivity_first(graph):
    """The error checked_degree_stats gave before it read the out-degrees
    first: connectivity by the spanning forest, then the first non-sink
    vertex without an out-edge; None for an accepted graph."""
    if not graph.is_connected():
        return "graph must be connected"
    stats = degree_stats(graph)
    return next((f"vertex {v} has no outgoing edge"
                 for v, d in zip(stats.vertices[:-1], stats.outdeg[:-1]) if not d), None)


class TestCheckedDegreeStats:
    def test_same_errors_as_connectivity_first(self):
        # every graph on 1..4 vertices with 0..2 edges per vertex pair
        seen = Counter()
        for nv in range(1, 5):
            pairs = list(combinations(range(nv), 2))
            for mult, lo in product(product(range(3), repeat=len(pairs)), (0, 1)):
                edges = tuple((a + lo, b + lo) for (a, b), m in zip(pairs, mult) for _ in range(m))
                graph = DirectedMultigraph(nv, edges, lo)
                expected = connectivity_first(graph)
                if expected is None:
                    assert checked_degree_stats(graph) == degree_stats(graph)
                else:
                    with pytest.raises(ValueError, match=f"^{expected}$"):
                        checked_degree_stats(graph)
                seen[expected and expected.split()[-1]] += 1
        assert seen == {None: 870, "connected": 226, "edge": 424}


class TestBuildGm:
    def test_example(self):
        g = build_gm((4, 1, 1))
        assert g.vertex_count == 4
        assert g.edges == ((1, 4),) * 4 + ((2, 4), (3, 4))

    def test_single(self):
        assert build_gm((1,)).edges == ((1, 2),)

    def test_decreasing(self):
        g = build_gm((3, 2, 1))
        assert g.edges == ((1, 4),) * 3 + ((2, 4),) * 2 + ((3, 4),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_gm((2, 0, 1))
        with pytest.raises(ValueError):
            build_gm((-1,))


class TestAttachSource:
    def test_k4_example(self):
        g = attach_source(complete_graph(4), (3, 2, 2))
        assert g.vertex_count == 5
        assert g.first_vertex == 0
        assert g.edge_count == 13
        assert g.edges[:7] == ((0, 1),) * 3 + ((0, 2),) * 2 + ((0, 3),) * 2

    def test_single_edge(self):
        g = attach_source(DirectedMultigraph(2, ((1, 2),)), (1,))
        assert g.edges == ((0, 1), (1, 2))

    def test_strip_recovers(self):
        # without the source and its edges the augmented graph is the input
        k4 = complete_graph(4)
        kept = tuple(e for e in attach_source(k4, (3, 2, 2)).edges if e[0] != 0)
        assert DirectedMultigraph(4, kept) == k4

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            attach_source(complete_graph(4), (3, 0, 2))
        with pytest.raises(ValueError):
            attach_source(complete_graph(4), (1, 1))

    def test_rejects_non_integer_c(self):
        # int() would truncate c to (1, 2)
        with pytest.raises(ValueError, match=r"^c entry 0 = 1\.7 is not an integer$"):
            attach_source(complete_graph(3), (1.7, 2.2))
        with pytest.raises(ValueError, match="c entry 1"):
            attach_source(complete_graph(3), (1, 2.0))

    def test_in_shift_additivity(self):
        k4 = complete_graph(4)
        c = (3, 2, 2)
        base = degree_stats(k4)
        augmented = degree_stats(attach_source(k4, c))
        # vertex i of the augmented graph sits at position i (source at 0)
        for i in range(1, 4):
            assert augmented.in_shift[i] == base.in_shift[i - 1] + c[i - 1]
        assert attach_source(k4, c).edge_count == k4.edge_count + sum(c)


def incidence_matrix(graph):
    """The vertex-by-edge matrix M, read off apply_incidence one unit flow
    (one column) at a time."""
    units = (tuple(int(k == e) for k in range(graph.edge_count)) for e in range(graph.edge_count))
    return tuple(zip(*(apply_incidence(graph, unit) for unit in units)))


class TestIncidenceMatrix:
    def test_single_edge(self):
        assert incidence_matrix(DirectedMultigraph(2, ((1, 2),))) == ((1,), (-1,))

    def test_path(self):
        m = incidence_matrix(path_graph(3))
        assert [row for row in m] == [(1, 0), (-1, 1), (0, -1)]

    def test_k4_rank(self):
        m = incidence_matrix(complete_graph(4))
        assert len(m) == 4 and len(m[0]) == 6
        assert rational_rank(m) == 3

    def test_columns_sum_to_zero(self):
        m = incidence_matrix(complete_graph(5))
        for j in range(len(m[0])):
            assert sum(row[j] for row in m) == 0

    def test_rank_counts_components(self):
        g = DirectedMultigraph(4, ((1, 2), (3, 4)))
        assert rational_rank(incidence_matrix(g)) == 4 - 2

    def test_apply_incidence(self):
        g = complete_graph(4)
        flow = (0, 0, 1, 0, 0, 0)  # unit flow on edge (1,4)
        assert apply_incidence(g, flow) == (1, 0, 0, -1)
        with pytest.raises(ValueError):
            apply_incidence(g, (1, 2))


class TestNetflowVector:
    def test_sum_zero_required(self):
        with pytest.raises(ValueError):
            NetflowVector((1, 0))

    def test_nice_chamber(self):
        assert NetflowVector((1, 0, -1)).nice_chamber
        assert NetflowVector((0, 0, 0)).nice_chamber
        assert not NetflowVector((1, -2, 1)).nice_chamber

    def test_completing(self):
        assert NetflowVector.completing((1, 2)).entries == (1, 2, -3)

    def test_non_integer_entries_refused(self):
        # whole or not: a float, a Fraction or a string is no integer entry
        for entries in [(1.9, 0, -1.9), (1.0, 0, -1), (Fraction(2), 0, -2), ("1", 0, -1)]:
            with pytest.raises(ValueError, match=r"^netflow entry 0 = .* is not an integer$"):
                NetflowVector(entries)
        with pytest.raises(ValueError, match=r"^netflow entry 1 = 0\.5 is not an integer$"):
            NetflowVector.completing((1, 0.5))
        assert NetflowVector((True, 0, -1)).entries == (1, 0, -1)

    def test_dilate(self):
        assert NetflowVector((1, 0, -1)).dilate(3).entries == (3, 0, -3)


class TestGraphFiles:
    def test_round_trip_examples(self):
        for g in (complete_graph(4), build_gm((3, 1, 2)), attach_source(complete_graph(3), (2, 1))):
            assert parse_graph(format_graph(g)) == g

    def test_multiplicity_and_comments(self):
        text = "4\n# complete-ish\n1 4 2\n2 3\n"
        g = parse_graph(text)
        assert g.edges == ((1, 4), (1, 4), (2, 3))

    def test_source_header(self):
        g = parse_graph("0 2\n0 1\n1 2\n")
        assert g.first_vertex == 0 and g.vertex_count == 3

    def test_errors_carry_line_numbers(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("3\n1 two\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("3\n1 2\n1 2 0\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("")

    def test_edge_limit(self):
        limit = multigraph._MAX_EDGES
        assert parse_graph(f"2\n1 2 {limit}\n").edge_count == limit
        assert parse_graph(f"3\n1 2 {limit - 1}\n2 3\n").edge_count == limit
        with pytest.raises(GraphFormatError, match="^line 3: .*more than"):
            parse_graph(f"3\n1 2 {limit}\n2 3\n")

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_round_trip_property(self, data):
        nv = data.draw(st.integers(2, 6))
        pairs = [(i, j) for i in range(1, nv + 1) for j in range(i + 1, nv + 1)]
        mults = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        edges = []
        for pair, k in zip(pairs, mults):
            edges.extend([pair] * k)
        g = DirectedMultigraph(nv, tuple(edges))
        assert parse_graph(format_graph(g)) == g
