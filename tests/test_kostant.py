"""Brute-force counting oracle, Ehrhart polynomial, normalized volume."""

import hashlib
import sys
from fractions import Fraction
from itertools import accumulate, product, zip_longest
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_gm, path_graph
from flowpoly import kostant
from flowpoly.kostant import (
    FlowCounter,
    FlowInstance,
    count_flows,
    ehrhart_polynomial,
    enumerate_flows,
    iter_flows,
    normalized_volume_box,
    normalized_volume_oracle,
    reciprocity_volume,
    source_split_volumes,
)
from flowpoly.lidskii import LidskiiTerms
from flowpoly.multigraph import (
    DirectedMultigraph,
    NetflowVector,
    attach_source,
    complete_graph,
    degree_stats,
)
from flowpoly.verify import iter_family


def source_sink_paths(graph):
    """Independent reference: directed paths first vertex -> last vertex,
    as edge index sets."""
    paths = []

    def walk(v, used):
        if v == graph.last_vertex:
            paths.append(frozenset(used))
            return
        for e in graph.out_edges_at(v):
            walk(graph.edges[e][1], used + [e])

    walk(graph.first_vertex, [])
    return paths


def inst(graph, entries):
    return FlowInstance(graph, NetflowVector(tuple(entries)))


def naive_count(instance):
    """Flow count by plain enumeration, independent of the counter."""
    return sum(1 for _ in iter_flows(instance))


class TestCountFlows:
    def test_k4_unit_flow_counts_paths(self):
        k4 = complete_graph(4)
        expected = len(source_sink_paths(k4))
        assert expected == 4
        assert count_flows(inst(k4, (1, 0, 0, -1))) == 4
        assert naive_count(inst(k4, (1, 0, 0, -1))) == 4

    def test_zero_netflow_single_flow(self):
        for g in (complete_graph(4), path_graph(3), complete_graph(5)):
            zero = (0,) * g.vertex_count
            assert count_flows(inst(g, zero)) == 1

    def test_k4_seven_flows(self):
        assert count_flows(inst(complete_graph(4), (1, 1, 0, -2))) == 7

    def test_infeasible_is_zero(self):
        # vertex 2 has supply but no outgoing edge
        g = DirectedMultigraph(3, ((1, 3),))
        assert count_flows(inst(g, (1, 1, -2))) == 0
        # negative interior demand that nothing can absorb
        assert count_flows(inst(path_graph(3), (0, -1, 1))) == 0

    def test_outside_nice_chamber(self):
        # netflow with a negative interior entry still counts exactly
        g = DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
        assert count_flows(inst(g, (1, -1, 0))) == 2
        assert naive_count(inst(g, (1, -1, 0))) == 2

    def test_non_integer_netflow_refused(self):
        # int() would truncate (1.9, 0, -1.9) to (1, 0, -1), which has 2 flows
        with pytest.raises(ValueError, match="netflow entry 0 = 1.9 is not an integer"):
            count_flows(FlowInstance(complete_graph(3), (1.9, 0, -1.9)))

    def test_memo_refuses_non_integer_netflow(self):
        # (1.0, 0, -1.0) hashes and compares equal to (1, 0, -1): the answer
        # must not depend on whether that one was counted first
        fresh = FlowCounter(complete_graph(3))
        with pytest.raises(ValueError, match="is not an integer"):
            fresh.count((1.0, 0, -1.0))
        counted = FlowCounter(complete_graph(3))
        assert counted.count((1, 0, -1)) == 2
        with pytest.raises(ValueError, match="is not an integer"):
            counted.count((1.0, 0, -1.0))

    def test_memoized_matches_naive_exhaustively(self):
        # small exhaustive slice of the agreement invariant
        from itertools import product

        for g in iter_family(4, 6):
            counter = FlowCounter(g)
            n = g.vertex_count - 1
            for head in product(range(3), repeat=n):
                a = NetflowVector.completing(head)
                assert counter.count(a) == naive_count(FlowInstance(g, a))

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_memoized_matches_naive_random(self, data):
        graphs = list(iter_family(5, 8))
        g = data.draw(st.sampled_from(graphs))
        head = data.draw(
            st.lists(st.integers(0, 3), min_size=g.vertex_count - 1, max_size=g.vertex_count - 1)
        )
        a = NetflowVector.completing(head)
        assert count_flows(FlowInstance(g, a)) == naive_count(FlowInstance(g, a))


class TestCountBox:
    """count_box against count, point by point, on the boxes the verify
    suites hand it."""

    @staticmethod
    def boxes(graph):
        n = graph.vertex_count - 1
        in_shift = [d - 1 for d in degree_stats(graph).indeg[:-1]]
        yield [range(3)] * n  # eq2: heads 0..2
        # thm41: indeg - 1 + c for c in 1..2; the first vertex has no
        # in-edge, so its range is 0..1
        yield [range(i + 1, i + 3) for i in in_shift]
        for t in (2, 3):  # the volume oracle's dilates: 1..2 times t, step t
            yield [range(t, 2 * t + 1, t)] * n
        yield [range(1, 3)] + [(2,)] * (n - 1)  # one wide range, the rest single

    def test_equals_count_on_family(self):
        points = 0
        for g in iter_family(4, 6):
            counter = FlowCounter(g)
            for box in self.boxes(g):
                single = FlowCounter(g)
                expected = [single.count(NetflowVector.completing(h)) for h in product(*box)]
                assert counter.count_box(box) == expected, (g.edges, box)
                points += len(expected)
        assert points == 9802

    def test_thm41_box_starts_at_zero(self):
        # indeg - 1 = -1 at the first vertex
        k4 = complete_graph(4)
        box = [range(0, 2), range(1, 3), range(2, 4)]
        assert FlowCounter(k4).count_box(box) == [
            count_flows(FlowInstance(k4, NetflowVector.completing(h))) for h in product(*box)]

    def test_empty_range_gives_no_counts(self):
        assert FlowCounter(complete_graph(4)).count_box([range(2), range(0), range(2)]) == []

    @pytest.mark.parametrize("box, message", [
        ([range(2)] * 2, "3 ranges, one per non-sink vertex, got 2"),
        ([range(2)] * 4, "3 ranges, one per non-sink vertex, got 4"),
        ([range(2), range(-1, 2), range(2)], "range 1 holds -1, below 0"),
        ([range(2), range(2), (0, 1.5)], r"range 2 entry 1 = 1\.5 is not an integer"),
    ])
    def test_bad_boxes_refused(self, box, message):
        with pytest.raises(ValueError, match=message):
            FlowCounter(complete_graph(4)).count_box(box)


class TestBuildGmLadder:
    """Flows on build_gm(m) split each a_i freely over m_i parallel edges,
    so the count is prod_i binom(a_i + m_i - 1, m_i - 1)."""

    def test_count_is_product_of_binomials(self):
        for n in (1, 2, 3):
            for m in product(range(1, 4), repeat=n):
                g = build_gm(m)
                for a in product(range(4), repeat=n):
                    expected = prod(comb(ai + mi - 1, mi - 1) for ai, mi in zip(a, m))
                    netflow = NetflowVector.completing(a)
                    assert count_flows(FlowInstance(g, netflow)) == expected, (m, a)


def doubled_triangle_count(p: int) -> int:
    """Flows at netflow (p, 0, -p) on the 3-vertex graph with every edge
    doubled, by the direct sum over the flow x sent from vertex 1 to 2:
    (x+1) ways on 1->2, (p-x+1) on 1->3 and (x+1) on 2->3."""
    return sum((x + 1) ** 2 * (p - x + 1) for x in range(p + 1))


DOUBLED_TRIANGLE = DirectedMultigraph(3, ((1, 2), (1, 2), (1, 3), (1, 3), (2, 3), (2, 3)))


class TestWideNetflows:
    """Netflows far above 16 bits per residual, anchored by direct sums."""

    def test_direct_sum_anchor_small(self):
        for p in range(6):
            a = (p, 0, -p)
            assert doubled_triangle_count(p) == naive_count(inst(DOUBLED_TRIANGLE, a))

    def test_wide_count_matches_direct_sum(self):
        p = 40000  # supply + max|entry| = 80000, far above 32766
        assert count_flows(inst(DOUBLED_TRIANGLE, (p, 0, -p))) == doubled_triangle_count(p)

    def test_wide_interior_entries(self):
        # three-vertex multigraph with a nonzero middle entry, both signs
        g = DirectedMultigraph(3, ((1, 2), (1, 3), (1, 3), (2, 3), (2, 3), (2, 3)))
        for p, q in ((50000, 7), (50000, -7)):
            expected = sum(
                comb(p - x + 1, 1) * comb(x + q + 2, 2) for x in range(max(0, -q), p + 1)
            )
            assert count_flows(inst(g, (p, q, -p - q))) == expected

    def test_one_counter_small_wide_small(self):
        counter = FlowCounter(DOUBLED_TRIANGLE)
        for p in (3, 35000, 4, 3):
            assert counter.count((p, 0, -p)) == doubled_triangle_count(p)


@st.composite
def forward_instances(draw, low=-2, high=3):
    """A forward multigraph on 1-5 vertices, numbered from 0 or 1, with up
    to five vertex pairs joined by 1-3 parallel edges, in any order; a
    non-sink vertex may have no out-edge.  The netflow's non-sink entries
    lie in low..high, so it may have negative interior entries and negative
    prefix sums."""
    nv = draw(st.integers(1, 5))
    first = draw(st.sampled_from((0, 1)))
    pairs = [(i + first, j + first) for i in range(nv) for j in range(i + 1, nv)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True)) if pairs else []
    edges = [pair for pair in chosen for _ in range(draw(st.integers(1, 3)))]
    graph = DirectedMultigraph(nv, tuple(draw(st.permutations(edges))), first_vertex=first)
    head = draw(st.lists(st.integers(low, high), min_size=nv - 1, max_size=nv - 1))
    return FlowInstance(graph, NetflowVector.completing(head))


class TestCutPruneExact:
    """The counter against plain enumeration off the verify family."""

    @settings(deadline=None, max_examples=300)
    @given(forward_instances())
    def test_matches_naive_on_forward_multigraphs(self, instance):
        counter = FlowCounter(instance.graph)
        assert counter.count(instance.netflow) == naive_count(instance)

    def test_first_head_past_negative_residuals(self):
        # the only head of vertex 1 is vertex 4: the check on entering vertex
        # 1 sums the residuals of vertices 2 and 3, not that of vertex 4,
        # which vertex 1 supplies
        g = DirectedMultigraph(5, ((1, 4), (2, 3), (2, 5), (3, 5), (4, 5)))
        a = NetflowVector((5, 2, -1, -5, -1))
        assert naive_count(FlowInstance(g, a)) == 2
        assert FlowCounter(g).count(a) == 2

    def test_negative_prefix_sum_is_zero(self):
        g = DirectedMultigraph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (2, 3)), first_vertex=0)
        for head in ((1, -2, 2), (0, -1, 1), (2, 1, -4)):
            a = NetflowVector.completing(head)
            assert FlowCounter(g).count(a) == naive_count(FlowInstance(g, a)) == 0

    @pytest.mark.parametrize("edges, netflow, expected", [
        # vertex 1 owes a unit that vertex 0, whose only head is 3, cannot send
        (((0, 3), (1, 2), (2, 3)), (2, -1, 1, -2), 0),
        # the same in front of the first of vertex 0's heads 2 and 3
        (((0, 2), (0, 3), (1, 3), (2, 3)), (2, -1, 1, -2), 0),
        # between vertex 0's heads 1 and 3, from head 1 on: it takes 1 or 2 units
        (((0, 1), (0, 3), (1, 2), (2, 3)), (2, -1, 0, -1), 2),
        # in front of vertex 0's head 2, and again between heads 2 and 4
        (((0, 2), (0, 4), (1, 4), (2, 3), (3, 4)), (3, -1, 0, -1, -1), 0),
    ])
    def test_each_branch_of_the_cut_scan(self, edges, netflow, expected):
        g = DirectedMultigraph(len(netflow), edges, first_vertex=0)
        a = NetflowVector(netflow)
        assert FlowCounter(g).count(a) == naive_count(FlowInstance(g, a)) == expected


def forward_multigraphs(nv):
    """Every forward multigraph on vertices 1..nv with 0-2 parallel edges
    per pair, the edgeless one included."""
    pairs = [(i, j) for i in range(1, nv + 1) for j in range(i + 1, nv + 1)]
    for mults in product(range(3), repeat=len(pairs)):
        yield DirectedMultigraph(nv, tuple(pair for pair, k in zip(pairs, mults) for _ in range(k)))


def triangle(m12, m13, m23):
    """The three-vertex multigraph with m12 edges 1->2, m13 edges 1->3 and
    m23 edges 2->3."""
    return DirectedMultigraph(3, ((1, 2),) * m12 + ((1, 3),) * m13 + ((2, 3),) * m23)


def triangle_count(m12, m13, m23, p, q):
    """Flows on triangle(m12, m13, m23) at (p, q, -p - q), one term per x
    units sent from 1 to 2: y units go over m parallel edges in
    C(y + m - 1, m - 1) ways, over none only if y = 0."""
    def ways(y, m):
        return comb(y + m - 1, m - 1) if m else int(y == 0)
    return sum(ways(x, m12) * ways(p - x, m13) * ways(x + q, m23) for x in range(max(0, -q), p + 1))


class TestClosedFormTail:
    """The last non-sink vertex and the one before it, which the counter
    finishes in closed form, against plain enumeration and direct sums."""

    def test_matches_naive_on_every_small_multigraph(self):
        # includes a last vertex without out-edges, and a second-to-last
        # vertex with an edge group to only one of the last vertex and the sink
        for nv in (2, 3, 4):
            for g in forward_multigraphs(nv):
                counter = FlowCounter(g)
                for head in product(range(-1, 3), repeat=nv - 1):
                    a = NetflowVector.completing(head)
                    assert counter.count(a) == naive_count(FlowInstance(g, a)), (g.edges, head)

    def test_last_vertex_without_out_edge(self):
        # the last vertex must hold nothing: no binomial with zero sink edges
        g = DirectedMultigraph(3, ((0, 1), (0, 2)), first_vertex=0)
        for head, expected in (((1, 0), 1), ((1, -1), 1), ((2, 0), 1), ((1, 1), 0), ((0, 0), 1)):
            a = NetflowVector.completing(head)
            assert FlowCounter(g).count(a) == naive_count(FlowInstance(g, a)) == expected

    def test_one_counter_small_wide_small_three_sink_edges(self):
        # 2 edges 1->2, 1 edge 1->3, 3 edges 2->3, counted by the direct sum
        # over the flow x on 1->2; the wide call widens the slots
        g = DirectedMultigraph(3, ((1, 2), (1, 2), (1, 3), (2, 3), (2, 3), (2, 3)))

        def direct(p, q):
            return sum((x + 1) * comb(x + q + 2, 2) for x in range(max(0, -q), p + 1))

        counter = FlowCounter(g)
        for p, q in ((3, 0), (2, -1), (40000, 5), (40000, -5), (3, 0), (4, -2), (0, 0)):
            assert counter.count((p, q, -p - q)) == direct(p, q), (p, q)

    def test_matches_direct_sum_on_every_triangle(self):
        # spans of up to 61 units, past the deg + 1 <= 7 values the Newton
        # sum reads, on every multiplicity vector with 0-3 edges per pair
        for mults in product(range(4), repeat=3):
            counter = FlowCounter(triangle(*mults))
            for p, q in product(range(61), range(-5, 6)):
                assert counter.count((p, q, -p - q)) == triangle_count(*mults, p, q), (mults, p, q)

    def test_chu_vandermonde_at_ten_to_twelve(self):
        # counter-free anchors no per-unit sum could reach: with one edge
        # 2->3 the count at (p, 0, -p) is sum_x C(x + a - 1, a - 1) C(p - x +
        # b - 1, b - 1) = C(p + a + b - 1, a + b - 1), a and b the numbers
        # of edges 1->2 and 1->3, and with one edge 1->2 the same with a and
        # b those of 1->3 and 2->3
        p = 10**12
        for a, b in product(range(1, 5), repeat=2):
            for g in (triangle(a, b, 1), triangle(1, a, b)):
                assert count_flows(inst(g, (p, 0, -p))) == comb(p + a + b - 1, a + b - 1), g.edges


class TestEnumerateFlows:
    def test_single_edge(self):
        g = DirectedMultigraph(2, ((1, 2),))
        assert enumerate_flows(inst(g, (1, -1))) == [(1,)]

    def test_k4_paths(self):
        k4 = complete_graph(4)
        flows = enumerate_flows(inst(k4, (1, 0, 0, -1)))
        assert len(flows) == 4
        expected = {frozenset(i for i, v in enumerate(f) if v) for f in flows}
        assert expected == set(source_sink_paths(k4))
        assert all(set(f) <= {0, 1} for f in flows)
        # reversed, the unit flows are the paths in the reference's depth-first
        # order, the order in which the dissection tests read cell vertices
        out_of_order = DirectedMultigraph(3, ((2, 3), (1, 3), (1, 2), (2, 3)))
        for graph, unit in ((k4, (1, 0, 0, -1)), (out_of_order, (1, 0, -1))):
            reversed_flows = enumerate_flows(inst(graph, unit))[::-1]
            edge_sets = [frozenset(i for i, v in enumerate(f) if v) for f in reversed_flows]
            assert edge_sets == source_sink_paths(graph)
        pin = [(0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)]
        assert enumerate_flows(inst(out_of_order, (1, 0, -1)))[::-1] == pin

    def test_zero_flow(self):
        k4 = complete_graph(4)
        assert enumerate_flows(inst(k4, (0, 0, 0, 0))) == [(0,) * 6]

    def test_length_matches_count(self):
        for g in (complete_graph(4), path_graph(4)):
            for head in ((1, 1, 0), (2, 0, 1), (0, 0, 0)):
                a = NetflowVector.completing(head)
                assert len(enumerate_flows(FlowInstance(g, a))) == count_flows(FlowInstance(g, a))


class TestEhrhart:
    def test_k4_unit(self):
        poly = ehrhart_polynomial(inst(complete_graph(4), (1, 0, 0, -1)))
        assert poly.coefficients == (Fraction(1), Fraction(11, 6), Fraction(1), Fraction(1, 6))
        # binomial(t+3, 3)
        for t in range(8):
            assert poly.value_at(t) == (t + 1) * (t + 2) * (t + 3) // 6

    def test_point_polytope(self):
        g = DirectedMultigraph(2, ((1, 2),))
        assert ehrhart_polynomial(inst(g, (1, -1))).coefficients == (Fraction(1),)

    def test_path_constant(self):
        poly = ehrhart_polynomial(inst(path_graph(3), (1, 0, -1)))
        assert poly.coefficients == (Fraction(1),)

    def test_degree_drop_with_zero_entries(self):
        # zero netflow entries shrink the polytope: degree falls below the
        # |E| - |V| + 1 bound and trailing coefficients trim away
        poly = ehrhart_polynomial(inst(complete_graph(4), (0, 0, 1, -1)))
        assert poly.coefficients == (Fraction(1),)

    def test_disconnected_rejected(self):
        g = DirectedMultigraph(4, ((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            ehrhart_polynomial(inst(g, (1, -1, 1, -1)))

    def test_empty_polytope_zero_polynomial(self):
        poly = ehrhart_polynomial(inst(path_graph(3), (0, -1, 1)))
        assert poly.coefficients == ()
        assert poly(5) == 0

    def test_out_of_sample_dilations(self):
        for g in (complete_graph(4), complete_graph(5)):
            bound = g.edge_count - g.vertex_count + 1
            a = NetflowVector.completing((1, 2) + (1,) * (g.vertex_count - 3))
            poly = ehrhart_polynomial(FlowInstance(g, a))
            for t in (bound + 1, bound + 2):
                assert poly.value_at(t) == count_flows(FlowInstance(g, a.dilate(t)))

    def test_family_digest_pinned(self):
        # Polynomials and oracle volumes over a family grid, empty polytopes
        # included, hashed; the digest was taken from the Lagrange
        # interpolation that the difference table replaced.
        lines = []
        for g in iter_family(4, 6):
            for head in product(range(-1, 3), repeat=g.vertex_count - 1):
                instance = FlowInstance(g, NetflowVector.completing(head))
                poly = ehrhart_polynomial(instance)
                vol = normalized_volume_oracle(instance)
                lines.append(f"{g.edges} {head} {poly.coefficient_strings()} {vol}\n")
        assert len(lines) == 11648
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "592c4f2582b42a4e7ceba6b0e22bde6030cd7a31e31fad18693422081c80fd20"


class TestDifferenceTable:
    """The one table of forward differences that ehrhart_polynomial and
    both volume oracles read, a netflow being its one-point box."""

    @settings(deadline=None, max_examples=200)
    @given(forward_instances(-3, 5))
    def test_point_row_is_differences_of_dilated_counts(self, instance):
        graph, a = instance.graph, instance.netflow
        point = [(h,) for h in a.entries[:-1]]
        if not graph.is_connected():
            with pytest.raises(ValueError, match="connected"):
                kostant._difference_table(FlowCounter(graph), point)
            return
        counter = FlowCounter(graph)
        bound = graph.edge_count - graph.vertex_count + 1
        expected = []
        if counter.count(a):
            expected = kostant._differences([counter.count(a.dilate(t)) for t in range(bound + 1)])
        assert kostant._difference_table(FlowCounter(graph), point) == [expected]

    def test_wide_negative_heads(self):
        # a head far below minus the sum of the positive ones sets the slot width
        g = DirectedMultigraph(3, ((1, 2), (1, 3), (1, 3), (2, 3), (2, 3), (2, 3)))
        for head in ((50000, -7), (7, -50000), (-50000, 7), (-3, -40000)):
            expected = [[count_flows(inst(g, (t * head[0], t * head[1], -t * sum(head))))] for t in (1, 2)]
            assert FlowCounter(g)._count_dilates([(h,) for h in head], (1, 2)) == expected, head

    def test_negative_head_gives_zero_polynomial(self):
        assert ehrhart_polynomial(inst(path_graph(3), (0, -1, 1))).coefficients == ()

    def test_one_dilate_table_per_oracle(self, monkeypatch):
        calls = []
        real = FlowCounter._count_dilates

        def spy(self, box, dilations):
            calls.append("_count_dilates")
            return real(self, box, dilations)

        monkeypatch.setattr(FlowCounter, "_count_dilates", spy)
        monkeypatch.setattr(FlowCounter, "count", lambda self, netflow: calls.append("count"))
        instance = inst(complete_graph(4), (1, 1, 0, -2))
        assert ehrhart_polynomial(instance).value_at(1) == 7
        assert calls == ["_count_dilates"]
        assert normalized_volume_oracle(instance) == 4
        assert calls == ["_count_dilates"] * 2


class TestNormalizedVolume:
    def test_k4_unit(self):
        assert normalized_volume_oracle(inst(complete_graph(4), (1, 0, 0, -1))) == 1

    def test_k4_example(self):
        assert normalized_volume_oracle(inst(complete_graph(4), (1, 1, 0, -2))) == 4

    def test_point_volume_one(self):
        g = DirectedMultigraph(2, ((1, 2),))
        assert normalized_volume_oracle(inst(g, (1, -1))) == 1

    def test_empty_volume_zero(self):
        assert normalized_volume_oracle(inst(path_graph(3), (0, -1, 1))) == 0

    def test_negative_top_difference_raises(self, monkeypatch):
        monkeypatch.setattr(kostant, "_difference_table", lambda counter, box: [[1, -2, 0]])
        with pytest.raises(ArithmeticError, match="nonnegative"):
            normalized_volume_oracle(inst(complete_graph(4), (1, 0, 0, -1)))

    def test_parallel_edge_permutation_invariance(self):
        a = (2, 1, 0, -3)
        g1 = DirectedMultigraph(4, ((1, 2), (1, 4), (1, 4), (2, 4), (2, 4), (3, 4)))
        g2 = DirectedMultigraph(4, ((1, 4), (1, 4), (1, 2), (2, 4), (2, 4), (3, 4)))
        assert normalized_volume_oracle(inst(g1, a)) == normalized_volume_oracle(inst(g2, a))


class TestNormalizedVolumeBox:
    """normalized_volume_box against normalized_volume_oracle at every
    point of a box."""

    def test_equals_oracle_on_family(self):
        graphs = list(iter_family(4, 6))
        trees = [g for g in graphs if g.edge_count == g.vertex_count - 1]
        assert trees and any(g.vertex_count == 3 for g in graphs)
        points = 0
        for g in graphs:
            # heads from 0: zero entries give smaller polytopes
            for box in ([range(1, 3)] * (g.vertex_count - 1), [range(3)] * (g.vertex_count - 1)):
                expected = [normalized_volume_oracle(FlowInstance(g, NetflowVector.completing(h)))
                            for h in product(*box)]
                assert normalized_volume_box(FlowCounter(g), box) == expected, (g.edges, box)
                points += len(expected)
        assert points == 6438

    def test_trees_have_volume_one(self):
        tree = DirectedMultigraph(4, ((1, 2), (2, 3), (3, 4)))
        assert normalized_volume_box(FlowCounter(tree), [range(1, 3)] * 3) == [1] * 8

    def test_empty_polytope_volume_zero(self):
        # vertex 2 has no out-edge, so a positive head there has no flow
        g = DirectedMultigraph(3, ((1, 2), (1, 3)))
        assert normalized_volume_box(FlowCounter(g), [range(2), range(2)]) == [1, 0, 1, 0]

    def test_negative_top_difference_raises(self, monkeypatch):
        monkeypatch.setattr(kostant, "_differences", lambda row: [1, -2, 0])
        with pytest.raises(ArithmeticError, match="nonnegative"):
            normalized_volume_box(FlowCounter(complete_graph(4)), [(1,), (0,), (0,)])

    def test_disconnected_refused(self):
        g = DirectedMultigraph(4, ((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="connected"):
            normalized_volume_box(FlowCounter(g), [(1,), (0,), (1,)])


def unit_instance(graph):
    netflow = [0] * graph.vertex_count
    netflow[0], netflow[-1] = 1, -1
    return FlowInstance(graph, NetflowVector(tuple(netflow)))


def augmented_reciprocity_volume(graph):
    """Reference: reciprocity_volume with one counter on the whole graph,
    the interior count L°(s) taken at s·a - ∂1 on the graph itself rather
    than split at its first vertex."""
    stats = degree_stats(graph)
    nv = graph.vertex_count
    dim = graph.edge_count - nv + 1
    unit = [0] * nv
    unit[0] += 1
    unit[-1] -= 1
    boundary = [o - i for o, i in zip(stats.outdeg, stats.indeg)]
    counter = FlowCounter(graph)
    sign = -1 if dim % 2 else 1
    row = [
        sign * counter.count(NetflowVector(tuple(s * u - b for u, b in zip(unit, boundary))))
        if s >= stats.outdeg[0] else 0
        for s in range(dim, 0, -1)
    ] + [1]
    backward = []
    while row:
        backward.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    assert sum(backward) == counter.count(NetflowVector(tuple(unit)))
    return backward[-1]


class TestReciprocityVolume:
    """The unit source-to-sink volume from the interior counts at the
    negative dilates, against the forward difference table and against the
    interior counts taken on the augmented graph itself."""

    def test_equals_oracle_on_family(self):
        instances = 0
        for g in iter_family(4, 6):
            for c in product((1, 2), repeat=g.vertex_count - 1):
                augmented = attach_source(g, c)
                oracle = normalized_volume_oracle(unit_instance(augmented))
                assert reciprocity_volume(augmented) == oracle, (g.edges, c)
                assert augmented_reciprocity_volume(augmented) == oracle, (g.edges, c)
                instances += 1
        assert instances == 1488

    @pytest.mark.parametrize("graph, c, volume", [
        (complete_graph(4), (3, 2, 2), 22),
        (complete_graph(5), (3, 1, 2, 2), 230),
        (complete_graph(5), (1, 1, 1, 1), 10),
        (complete_graph(5), (2, 2, 2, 2), 140),
    ])
    def test_named_values(self, graph, c, volume):
        augmented = attach_source(graph, c)
        assert reciprocity_volume(augmented) == volume
        assert augmented_reciprocity_volume(augmented) == volume
        assert normalized_volume_oracle(unit_instance(augmented)) == volume

    def test_box_shares_one_counter(self):
        # a box of c on one counter gives the one-point volumes, in order
        graph = complete_graph(4)
        box = list(product((1, 2, 3), (1, 2), (2, 1)))
        volumes = list(source_split_volumes(FlowCounter(graph), ((*c, 0) for c in box)))
        assert volumes == [reciprocity_volume(attach_source(graph, c)) for c in box]
        assert volumes[box.index((3, 2, 2))] == 22

    def test_graphs_without_source(self):
        # CRY K5 and a single edge, where every edge is on a source-sink path
        assert reciprocity_volume(complete_graph(5)) == 2
        assert reciprocity_volume(DirectedMultigraph(2, ((1, 2),))) == 1
        assert reciprocity_volume(DirectedMultigraph(2, ((1, 2),) * 3)) == 1

    @pytest.mark.parametrize("graph, vertex", [
        (DirectedMultigraph(3, ((1, 3), (2, 3))), "vertex 2 has no incoming edge"),
        (DirectedMultigraph(3, ((1, 2), (1, 3))), "vertex 2 has no outgoing edge"),
        (DirectedMultigraph(4, ((1, 2), (1, 3), (2, 4))), "vertex 3 has no outgoing edge"),
    ])
    def test_edge_on_no_source_sink_path_refused(self, graph, vertex):
        with pytest.raises(ValueError, match=vertex):
            reciprocity_volume(graph)

    def test_counter_off_by_one_at_one_raises(self, monkeypatch):
        # L(1) on K4 with a source in front sums the counts on K4 from each
        # vertex to the sink; the one from vertex 1 is spoiled
        real = FlowCounter._reader

        def off_at_unit(self, bound, origin=()):
            read = real(self, bound, origin)

            def spoiled(heads):
                heads = tuple(heads)
                return read(heads) + (not origin and heads == (1, 0, 0))

            return spoiled

        monkeypatch.setattr(kostant.FlowCounter, "_reader", off_at_unit)
        with pytest.raises(ArithmeticError, match="L\\(1\\)"):
            reciprocity_volume(attach_source(complete_graph(4), (1, 1, 1)))

    def test_heads_with_a_negative_prefix_sum_are_not_read(self, monkeypatch):
        # a cut with negative flow has no flows: those heads of K4 are
        # answered 0 before a read, as count answers them
        real = FlowCounter._reader
        read = []

        def recording(self, bound, origin=()):
            reader = real(self, bound, origin)

            def record(heads):
                heads = tuple(heads)
                read.append([a + b for a, b in zip_longest(origin, heads, fillvalue=0)][:3])
                return reader(heads)

            return record

        monkeypatch.setattr(kostant.FlowCounter, "_reader", recording)
        box = list(product((1, 2, 3), (1, 2), (2, 1)))
        volumes = list(source_split_volumes(FlowCounter(complete_graph(4)), ((*c, 0) for c in box)))
        assert volumes[box.index((3, 2, 2))] == 22
        assert len(read) == 63 and min(min(accumulate(h)) for h in read) == 0

    @pytest.mark.parametrize("graph, sources", [
        (complete_graph(4), [(130, 0, 1, 0), (1, 1, 1, 0), (200, 3, 150, 2)]),
        (DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3), (1, 3))), [(128, 0, 0), (1, 300, 1)]),
    ])
    def test_wide_sources_match_checked_counts(self, graph, sources):
        # entries of 128 or more push the reader past 8-bit slots; the same
        # sum with a checked count per head on another counter is the reference
        volumes = list(source_split_volumes(FlowCounter(graph), sources))
        checked, reference = FlowCounter(graph), FlowCounter(graph)
        n = graph.vertex_count - 1

        def checked_reader(bound, origin=()):
            def read(heads):
                h = [a + b for a, b in zip_longest(origin, heads, fillvalue=0)][:n]
                return reference.count((*h, -sum(h)))

            return read

        checked._reader = checked_reader
        assert volumes == list(source_split_volumes(checked, sources))


@pytest.mark.parametrize("graph, evaluate, value, calls", [
    # Tesler K7's volume hits in the group chains, K5's box in the tail loops
    (complete_graph(7), lambda c: LidskiiTerms(c.graph, c).volume((1,) * 6 + (-6,)),
     factorial(15) * 2**15 // prod(map(factorial, range(1, 7))), 703),
    (complete_graph(5), lambda c: sum(c.count_box([range(4)] * 4)), 65984, 1803),
])
def test_split_loops_read_memo_hits_without_a_call(graph, evaluate, value, calls):
    # the tail loops and the group chain look each next state up in its
    # memo table before they recurse: 1,557 and 4,392 calls when every
    # next state is a call
    counter = FlowCounter(graph)
    code = counter._packing(15)[0].__code__  # 8-bit slots, as both evaluations read
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            made.append(frame)

    sys.setprofile(profile)
    try:
        assert evaluate(counter) == value
    finally:
        sys.setprofile(None)
    assert len(made) == calls


def test_packed_state_stays_in_kostant():
    # the counter's packed format has one owner; every other module reads
    # counts through FlowCounter.count, count_box or the reader
    src = Path(kostant.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "_packing" in p.read_text()] == ["kostant.py"]


def test_eq2_family_counts_match_enumeration():
    """The eq2 suite compares the closed formula with FlowCounter; this
    anchors FlowCounter on the same instances with the enumerator, which
    shares no code with it."""
    instances = 0
    for g in iter_family(4, 7):
        counter = FlowCounter(g)
        for head in product(range(3), repeat=g.vertex_count - 1):
            a = NetflowVector.completing(head)
            expected = sum(1 for _ in iter_flows(FlowInstance(g, a)))
            assert counter.count(a) == expected, (g.edges, head)
            instances += 1
    assert instances == 7434
