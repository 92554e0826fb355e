"""Noncrossing trees, reductions, reduction trees, censuses, dissection."""

import hashlib
import tracemalloc
from itertools import chain, product
from math import comb, prod

import pytest
from conftest import augmented_levels, build_gm, in_edges_at, path_graph, phi_map
from hypothesis import given, settings, strategies as st

from flowpoly import reduction
from flowpoly.geometry import SimplexCell, unit_source_sink_netflow, verify_dissection
from flowpoly.kostant import FlowInstance, count_flows, enumerate_flows
from flowpoly.lidskii import LidskiiTerms, multiset_coeff
from flowpoly.multigraph import (
    DirectedMultigraph,
    NetflowVector,
    attach_source,
    complete_graph,
)
from flowpoly.reduction import (
    LeafShapeError,
    NodeCapExceeded,
    NoncrossingTree,
    ProvenancedGraph,
    canonical_reduction_tree,
    census_to_json,
    dissection_cell_counts,
    dot_lines,
    enumerate_noncrossing_trees,
    iter_dissection_cells,
    iter_reduction_leaves,
    leaf_census,
    reduce_at_vertex,
    tree_census,
    unimodular_dissection,
    zero_vertex_dissection_children,
)
from flowpoly.verify import iter_family, run_dissection_suite


def lifted(node, c):
    """The plain tree's node lifted to the source tree at c: c_i source
    edges (0, i) first, each its own root edge, then the node's edges with
    their root edges moved up by sum(c)."""
    shift = sum(c)
    return ProvenancedGraph(
        attach_source(node.graph, c),
        tuple(frozenset((e,)) for e in range(shift))
        + tuple(frozenset(d + shift for d in s) for s in node.provenance),
        attach_source(node.root, c),
    )


def provenance_paths_ok(node):
    """Every s(e) orders into a directed root path tail(e) -> head(e)."""
    for (tail, head), s in zip(node.graph.edges, node.provenance):
        at = tail
        remaining = set(s)
        while remaining:
            step = next((d for d in remaining if node.root.edges[d][0] == at), None)
            if step is None:
                return False
            at = node.root.edges[step][1]
            remaining.discard(step)
        if at != head:
            return False
    return True


def worked_example_root():
    """Six-edge graph with doubled (1,4) and (2,4) edges, kept in a fixed
    non-canonical coordinate order; the golden coordinate-map values below
    are stated in exactly this order."""
    return DirectedMultigraph(4, ((1, 4), (1, 4), (1, 2), (2, 4), (2, 4), (3, 4)))


class TestNoncrossingTrees:
    def test_unique_tree(self):
        trees = enumerate_noncrossing_trees(1, 1)
        assert len(trees) == 1
        assert trees[0].edges == ((1, 1),)

    def test_counts(self):
        assert len(enumerate_noncrossing_trees(2, 3)) == 3
        assert len(enumerate_noncrossing_trees(2, 2)) == 2

    def test_count_formula_small(self):
        for l in range(1, 7):
            for r in range(1, 7):
                trees = enumerate_noncrossing_trees(l, r)
                assert len(trees) == comb(l + r - 2, l - 1)
                assert len(set(trees)) == len(trees)
                for t in trees:
                    assert t.structure_error() is None

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            enumerate_noncrossing_trees(0, 2)
        with pytest.raises(ValueError):
            enumerate_noncrossing_trees(2, 0)

    def test_crossing_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            NoncrossingTree(2, 2, ((1, 2), (2, 1), (1, 1)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            NoncrossingTree(2, 2, ((1, 1), (1, 1), (2, 2)))

    def test_non_integer_edge_refused(self):
        # int() would truncate (1, 1.9) to (1, 1), a valid tree
        with pytest.raises(ValueError, match=r"^tree edge 0 entry 1 = 1\.9 is not an integer$"):
            NoncrossingTree(1, 2, ((1, 1.9), (1, 2)))


def is_noncrossing_spanning_tree(left_size, right_size, edges):
    """The definition read literally: left_size + right_size - 1 distinct
    in-range edges, no two of them crossing, joining all the vertices."""
    l, r = left_size, right_size
    if len(set(edges)) != len(edges) or len(edges) != l + r - 1:
        return False
    if not all(1 <= p <= l and 1 <= q <= r for p, q in edges):
        return False
    if any(p < t and q > u for p, q in edges for t, u in edges):
        return False
    reached = {("left", 1)}
    grew = True
    while grew:
        grew = False
        for p, q in edges:
            ends = {("left", p), ("right", q)}
            if len(ends & reached) == 1:
                reached |= ends
                grew = True
    return len(reached) == l + r


class TestStaircaseRule:
    """The one-pass staircase check against the definition."""

    def test_every_edge_subset_up_to_four_a_side(self):
        checked = accepted = 0
        for l in range(1, 5):
            for r in range(1, 5):
                grid = [(p, q) for p in range(1, l + 1) for q in range(1, r + 1)]
                trees = set()
                for mask in range(1 << len(grid)):
                    edges = tuple(e for k, e in enumerate(grid) if mask >> k & 1)
                    try:
                        NoncrossingTree(l, r, edges)
                        valid = True
                    except ValueError:
                        valid = False
                    assert valid == is_noncrossing_spanning_tree(l, r, edges), (l, r, edges)
                    if valid:
                        trees.add(edges)
                    checked += 1
                assert trees == {t.edges for t in enumerate_noncrossing_trees(l, r)}
                accepted += len(trees)
        assert (checked, accepted) == (74954, 69)

    @pytest.mark.parametrize("left_size, right_size, edges, message", [
        (2, 2, ((1, 1), (1, 2), (2, 3)), "tree edge (2,3) out of range"),
        (2, 2, ((1, 1), (1, 1), (2, 2)), "repeated tree edge"),
        (2, 2, ((1, 1), (1, 2), (2, 1)), "edges (1,2) and (2,1) cross"),
        (2, 2, ((1, 1), (2, 2)), "tree edges (1,1) and (2,2) are not one step apart"),
        (2, 2, ((1, 2), (2, 2)), "tree edges must run from (1,1) to (2,2)"),
        (1, 1, (), "tree edges must run from (1,1) to (1,1)"),
        (0, 1, (), "both sides must be nonempty"),
    ], ids=["out of range", "repeated", "crossing", "gap", "missing corner", "empty", "empty side"])
    def test_messages(self, left_size, right_size, edges, message):
        with pytest.raises(ValueError) as info:
            NoncrossingTree(left_size, right_size, edges)
        assert str(info.value) == message


class TestReduceAtVertex:
    def test_path_reduction(self):
        node = ProvenancedGraph.as_root(path_graph(3))
        (tree,) = enumerate_noncrossing_trees(2, 1)
        child = reduce_at_vertex(node, 2, (0,), (1,), tree)
        assert child.graph.edges == ((1, 3), (2, 3))
        assert child.provenance == (frozenset({0, 1}), frozenset({1}))
        assert child.graph == build_gm((1, 1))

    def test_worked_example_reduction(self):
        node = ProvenancedGraph.as_root(worked_example_root())
        tree = NoncrossingTree(2, 2, ((1, 1), (1, 2), (2, 2)))
        child = reduce_at_vertex(node, 2, incoming=(2,), outgoing=(3, 4), tree=tree)
        assert child.graph.edges == ((1, 4),) * 4 + ((2, 4), (3, 4))
        # s(g_{12+24}) = {f12, f24}
        assert child.provenance[2] == frozenset({2, 3})
        assert child.provenance[3] == frozenset({2, 4})
        assert child.provenance[4] == frozenset({4})

    def test_empty_incoming_is_identity(self):
        g = complete_graph(4)
        node = ProvenancedGraph.as_root(g)
        (tree,) = enumerate_noncrossing_trees(1, 1)
        child = reduce_at_vertex(node, 3, (), (5,), tree)
        assert child.graph == g
        assert child.provenance == node.provenance

    def test_shape_mismatch_rejected(self):
        node = ProvenancedGraph.as_root(path_graph(3))
        (tree,) = enumerate_noncrossing_trees(1, 1)
        with pytest.raises(ValueError, match="shape"):
            reduce_at_vertex(node, 2, (0,), (1,), tree)

    def test_non_incident_edges_rejected(self):
        node = ProvenancedGraph.as_root(complete_graph(4))
        (tree,) = enumerate_noncrossing_trees(2, 1)
        with pytest.raises(ValueError, match="incoming"):
            reduce_at_vertex(node, 2, (1,), (4,), tree)  # edge (1,3) not into 2

    def test_non_integer_edge_index_refused(self):
        # int() would truncate (1.0, 3.7) to (1, 3), the two edges into 3
        node = ProvenancedGraph.as_root(complete_graph(4))
        (tree,) = enumerate_noncrossing_trees(3, 1)
        with pytest.raises(ValueError, match=r"^incoming entry 1 = 3\.7 is not an integer$"):
            reduce_at_vertex(node, 3, (1, 3.7), (5,), tree)
        with pytest.raises(ValueError, match=r"^outgoing entry 0 = 5\.0 is not an integer$"):
            reduce_at_vertex(node, 3, (1, 3), (5.0,), tree)

    def test_interior_vertex_required(self):
        node = ProvenancedGraph.as_root(path_graph(3))
        (tree,) = enumerate_noncrossing_trees(1, 1)
        with pytest.raises(ValueError, match="interior"):
            reduce_at_vertex(node, 3, (), (1,), tree)

    def test_provenance_overlap_is_hard_error(self):
        g = path_graph(3)
        bad = ProvenancedGraph(g, (frozenset({0}), frozenset({0})), g)
        (tree,) = enumerate_noncrossing_trees(2, 1)
        with pytest.raises(ValueError, match="overlap"):
            reduce_at_vertex(bad, 2, (0,), (1,), tree)

    def test_edge_count_bookkeeping(self):
        # |E(child)| = |E| - |I| - |O| + |E(T)| for full and partial choices
        node = ProvenancedGraph.as_root(worked_example_root())
        for incoming, outgoing in (((2,), (3, 4)), ((2,), (3,))):
            for tree in enumerate_noncrossing_trees(len(incoming) + 1, len(outgoing)):
                child = reduce_at_vertex(node, 2, incoming, outgoing, tree)
                expected = 6 - len(incoming) - len(outgoing) + len(tree.edges)
                assert child.graph.edge_count == expected


def assert_fully_valid(node):
    """The node equals its rebuild through the public, checking
    constructors, and every provenance set orders into its root path."""
    g = node.graph
    rebuilt = ProvenancedGraph(
        DirectedMultigraph(g.vertex_count, g.edges, g.first_vertex), node.provenance, node.root
    )
    assert rebuilt == node
    assert all(type(s) is frozenset for s in node.provenance)
    assert provenance_paths_ok(node)


class TestChildrenFromCheckedParts:
    """reduce_at_vertex builds its children without rechecking the parts
    they inherit; every child must still pass the full checks."""

    def test_canonical_tree_k5(self):
        tree = canonical_reduction_tree(complete_graph(5))
        for node in tree.nodes():
            assert_fully_valid(node.graph)
        assert tree.node_count == 15

    def test_source_tree_k6(self):
        levels = augmented_levels(complete_graph(6), (2,) * 5)
        for level in levels:
            for node in level:
                assert_fully_valid(node)
        assert len(levels[-1]) == 140

    def test_shape_dissection_k4(self):
        g, c = complete_graph(4), (3, 2, 2)
        terminals = 0
        for composition in leaf_census(augmented_levels(g, c)[-1]):
            levels = zero_entry_levels(shape_root(c, composition), len(c))
            for level in levels:
                for node in level:
                    assert_fully_valid(node)
            # each cell, as flows on the shape edges, is its terminal's path
            # indicator flows pushed through the terminal's coordinate map
            assert shape_cells(c, composition) == terminal_cells(levels[-1])
            terminals += len(levels[-1])
        assert terminals == 22

    def test_children_share_parent_parts(self):
        node = ProvenancedGraph.as_root(complete_graph(4))
        inc, out = in_edges_at(node.graph, 3), node.graph.out_edges_at(3)
        (tree, *_) = enumerate_noncrossing_trees(len(inc) + 1, len(out))
        child = reduce_at_vertex(node, 3, inc, out, tree)
        for k in set(range(node.graph.edge_count)) - set(inc) - set(out):
            assert any(e is node.graph.edges[k] for e in child.graph.edges)
            assert any(s is node.provenance[k] for s in child.provenance)


def by_length(graph, idxs):
    """Edge indices by decreasing edge length, ties by ascending index."""
    return tuple(sorted(idxs, key=lambda k: (graph.edges[k][0] - graph.edges[k][1], k)))


class TestSharedExpansion:
    """The children of a node share one expansion of its reduction; each
    equals the child that reduce_at_vertex builds on its own."""

    def test_canonical_tree_k5(self):
        tree = canonical_reduction_tree(complete_graph(5))
        expanded = 0
        for parent in tree.nodes():
            if parent.is_leaf:
                continue
            g = parent.graph.graph
            vertex = parent.children[0].vertex
            inc, out = by_length(g, in_edges_at(g, vertex)), by_length(g, g.out_edges_at(vertex))
            trees, children = zip(*reduction._expansions(parent.graph, vertex))
            assert list(trees) == list(enumerate_noncrossing_trees(len(inc) + 1, len(out)))
            assert list(children) == [
                reduce_at_vertex(parent.graph, vertex, inc, out, t) for t in trees
            ]
            assert list(children) == [child.graph for child in parent.children]
            assert list(trees) == [child.tree for child in parent.children]
            expanded += 1
        assert expanded == 5

    def test_shape_dissections_k4(self):
        g, c = complete_graph(4), (3, 2, 2)
        n = len(c)
        expanded = 0
        for composition in leaf_census(augmented_levels(g, c)[-1]):
            levels = zero_entry_levels(shape_root(c, composition), n)
            for vertex, level in enumerate(levels[:n], 1):
                for node in level:
                    inc = by_length(node.graph, in_edges_at(node.graph, vertex))
                    out = by_length(node.graph, node.graph.out_edges_at(vertex))
                    appended = len(inc) + 1
                    assert zero_vertex_dissection_children(node, vertex) == [
                        reduce_at_vertex(node, vertex, inc, out, tree)
                        for tree in enumerate_noncrossing_trees(appended, len(out))
                        if tree.edges_at_left(appended) == 1
                    ]
                    expanded += 1
        assert expanded == 40  # 2 shape roots and 60 nodes made, 22 of them terminal

    def overlapping_node(self):
        # 1 -> 2 -> 3 with two out-edges at 2; the in-edge shares root edge
        # 0 with the second out-edge only, so the tree (1,1),(2,1),(2,2)
        # reduces and the tree (1,1),(1,2),(2,2) must fail
        g = DirectedMultigraph(3, ((1, 2), (2, 3), (2, 3)))
        return ProvenancedGraph(g, (frozenset({0}), frozenset({1}), frozenset({0, 2})), g)

    def test_overlap_error_on_both_paths(self):
        node = self.overlapping_node()
        trees = enumerate_noncrossing_trees(2, 2)
        messages = []
        for tree in trees:
            try:
                reduce_at_vertex(node, 2, (0,), (1, 2), tree)
                messages.append(None)
            except ValueError as exc:
                messages.append(str(exc))
        assert messages[0] is None and "overlap" in messages[1]
        made = []
        with pytest.raises(ValueError) as shared:
            for _, child in reduction._expansions(node, 2):
                made.append(child)
        assert (len(made), str(shared.value)) == (1, messages[1])
        with pytest.raises(ValueError) as zero:
            zero_vertex_dissection_children(node, 2)
        assert str(zero.value) == messages[1]

    def test_siblings_share_sum_edges(self):
        tree = canonical_reduction_tree(complete_graph(5))
        shared = 0
        for parent in tree.nodes():
            inherited = set(map(id, parent.graph.provenance))
            held = {}
            for child in parent.children:
                for s in child.graph.provenance:
                    if id(s) in inherited:
                        continue
                    if s in held:
                        assert held[s] is s
                        shared += 1
                    held.setdefault(s, s)
        assert shared > 0


class TestTracingContract:
    """Tracing wraps reduce_at_vertex by its module-global name, so every
    child of a reduction must come through that name."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = reduction.reduce_at_vertex

        def counting(*args, **kwargs):
            made.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(reduction, "reduce_at_vertex", counting)
        return made

    def test_one_call_per_tree_node(self, calls):
        tree = canonical_reduction_tree(complete_graph(5))
        assert len(calls) == tree.node_count - 1 == 14

    def test_two_leaves_take_four_calls(self, calls):
        leaves = iter_reduction_leaves(complete_graph(5))
        next(leaves)
        next(leaves)
        leaves.close()
        assert calls == [4, 3, 2, 2]

    def test_one_call_per_dissection_child(self, calls):
        node = ProvenancedGraph.as_root(attach_source(build_gm((3, 1)), (2, 1)))
        children = zero_vertex_dissection_children(node, 1)
        assert len(calls) == len(children) == 3


class TestPhiMap:
    def test_root_is_identity(self):
        node = ProvenancedGraph.as_root(complete_graph(4))
        units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
        assert [phi_map(node, u) for u in units] == units

    def test_golden_coordinate_image(self):
        node = ProvenancedGraph.as_root(worked_example_root())
        tree = NoncrossingTree(2, 2, ((1, 1), (1, 2), (2, 2)))
        child = reduce_at_vertex(node, 2, (2,), (3, 4), tree)
        assert phi_map(child, (0, 1, 0, 1, 1, 1)) == (0, 1, 1, 0, 2, 1)

    def test_wrong_length_refused(self):
        node = ProvenancedGraph.as_root(complete_graph(4))
        with pytest.raises(ValueError, match="vector has 5 coordinates, node has 6 edges"):
            phi_map(node, (1,) * 5)

    def test_composition_along_tree_path(self):
        k4 = complete_graph(4)
        root = ProvenancedGraph.as_root(k4)
        (t3,) = enumerate_noncrossing_trees(3, 1)
        mid = reduce_at_vertex(root, 3, (1, 3), (5,), t3)
        t2 = enumerate_noncrossing_trees(2, 2)[1]
        deep = reduce_at_vertex(mid, 2, (0,), (3, 4), t2)
        # same reduction applied to a re-rooted copy of the middle node
        rerooted = ProvenancedGraph.as_root(mid.graph)
        relative = reduce_at_vertex(rerooted, 2, (0,), (3, 4), t2)
        # phi(deep) = phi(mid) o phi(relative), checked on every unit vector
        size = deep.graph.edge_count
        for e in range(size):
            unit = tuple(int(k == e) for k in range(size))
            assert phi_map(deep, unit) == phi_map(mid, phi_map(relative, unit))

    def test_maps_flows_to_root_flows(self):
        from flowpoly.multigraph import apply_incidence

        k4 = complete_graph(4)
        a = NetflowVector((2, 1, 0, -3))
        tree = canonical_reduction_tree(k4)
        for node in tree.nodes():
            for f in enumerate_flows(FlowInstance(node.graph.graph, a)):
                image = phi_map(node.graph, f)
                assert apply_incidence(k4, image) == a.entries


class TestCanonicalTree:
    def test_k4_leaves(self):
        tree = canonical_reduction_tree(complete_graph(4))
        leaves = [n.graph.graph for n in tree.leaves()]
        assert len(leaves) == 2
        shapes = sorted(leaf.edge_multiset() for leaf in leaves)
        assert shapes == sorted(
            (build_gm((4, 1, 1)).edge_multiset(), build_gm((3, 2, 1)).edge_multiset())
        )

    def test_path_single_leaf(self):
        tree = canonical_reduction_tree(path_graph(3))
        leaves = tree.leaves()
        assert len(leaves) == 1
        assert leaves[0].graph.graph == build_gm((1, 1))

    def test_single_edge_root_only(self):
        tree = canonical_reduction_tree(DirectedMultigraph(2, ((1, 2),)))
        assert tree.node_count == 1
        assert tree.leaves() == [tree.root]

    def test_edge_count_preserved(self):
        tree = canonical_reduction_tree(complete_graph(4))
        for node in tree.nodes():
            assert node.graph.graph.edge_count == 6

    def test_node_cap(self):
        with pytest.raises(NodeCapExceeded):
            canonical_reduction_tree(complete_graph(5), node_cap=3)

    def test_provenance_paths(self):
        tree = canonical_reduction_tree(complete_graph(4))
        for node in tree.nodes():
            assert provenance_paths_ok(node.graph)


class TestSourceTree:
    """The source tree at c, walked on the augmented graph, is the plain
    tree lifted node for node."""

    def test_k4_322_leaves(self):
        leaves = [leaf.graph for leaf in augmented_levels(complete_graph(4), (3, 2, 2))[-1]]
        assert len(leaves) == 2
        expected = sorted(
            (
                attach_source(build_gm((4, 1, 1)), (3, 2, 2)).edge_multiset(),
                attach_source(build_gm((3, 2, 1)), (3, 2, 2)).edge_multiset(),
            )
        )
        assert sorted(leaf.edge_multiset() for leaf in leaves) == expected

    def test_plain_tree_lifted_is_augmented_walk(self):
        # breadth first, node for node, in edges and provenance
        cases = [(g, c) for g in iter_family(4, 6)
                 for c in product((1, 2), repeat=g.vertex_count - 1)]
        cases += [(complete_graph(4), (3, 2, 2)), (complete_graph(5), (3, 1, 2, 2)),
                  (complete_graph(6), (2,) * 5)]
        assert len(cases) == 1491
        for g, c in cases:
            plain = [lifted(node.graph, c) for node in canonical_reduction_tree(g).nodes()]
            assert plain == list(chain.from_iterable(augmented_levels(g, c))), (g.edges, c)

    def test_path_single_leaf(self):
        assert len(augmented_levels(path_graph(3), (1, 1))[-1]) == 1


def walked_trees():
    """(graph, c) for the plain K5 tree and the source tree of K4 at
    c = (3, 2, 2), which is the plain K4 tree lifted."""
    return (complete_graph(5), None), (complete_graph(4), (3, 2, 2))


class TestOneWalk:
    """The materialized trees and the leaf stream come from one walk."""

    def test_tree_leaves_equal_streamed_leaves(self):
        for g, _ in walked_trees():
            leaves = [n.graph for n in canonical_reduction_tree(g).leaves()]
            assert len(leaves) > 1
            assert leaves == list(iter_reduction_leaves(g))

    def test_parent_links_and_schedule(self):
        for g, _ in walked_trees():
            tree = canonical_reduction_tree(g)
            assert tree.root.parent is None and tree.root.vertex is None
            for node in tree.nodes():
                if node is tree.root:
                    continue
                assert any(child is node for child in node.parent.children)
                depth, up = 0, node
                while up.parent is not None:
                    depth, up = depth + 1, up.parent
                assert node.vertex == tree.schedule[depth - 1]

    def test_node_cap_is_exact(self):
        for g, c in walked_trees():
            count = canonical_reduction_tree(g).node_count
            if c is not None:
                assert count == sum(map(len, augmented_levels(g, c)))
            assert canonical_reduction_tree(g, node_cap=count).node_count == count
            assert list(iter_reduction_leaves(g, node_cap=count))
            with pytest.raises(NodeCapExceeded):
                canonical_reduction_tree(g, node_cap=count - 1)
            with pytest.raises(NodeCapExceeded):
                list(iter_reduction_leaves(g, node_cap=count - 1))
            assert tree_census(g, c, node_cap=count)
            with pytest.raises(NodeCapExceeded):
                tree_census(g, c, node_cap=count - 1)
            assert list(dot_lines(g, c, node_cap=count))
            with pytest.raises(NodeCapExceeded):
                dot_lines(g, c, node_cap=count - 1)


class TestLeafCensus:
    def test_k4(self):
        tree = canonical_reduction_tree(complete_graph(4))
        assert leaf_census(tree) == {(2, 1, 0): 1, (3, 0, 0): 1}

    def test_k4_with_source(self):
        leaves = augmented_levels(complete_graph(4), (3, 2, 2))[-1]
        assert leaf_census(leaves) == {(2, 1, 0): 1, (3, 0, 0): 1}

    def test_path(self):
        assert leaf_census(canonical_reduction_tree(path_graph(3))) == {(0, 0): 1}

    def test_streaming_matches_tree(self):
        k4 = complete_graph(4)
        streamed = leaf_census(iter_reduction_leaves(k4))
        assert streamed == leaf_census(canonical_reduction_tree(k4))
        assert streamed == leaf_census(augmented_levels(k4, (2, 1, 1))[-1])

    def test_bad_leaf_shape(self):
        with pytest.raises(LeafShapeError):
            leaf_census([path_graph(3)])

    @staticmethod
    def reference_composition(graph):
        """The leaf composition over a dict of all vertices, as first
        written; the tests' reference for messages and values."""
        sink = graph.last_vertex
        counts = {i: 0 for i in range(1, sink)}
        for a, b in graph.edges:
            if graph.first_vertex == 0 and a == 0:
                if b == sink:
                    raise LeafShapeError("leaf has a source edge pointing at the sink")
                continue
            if b != sink:
                raise LeafShapeError(f"leaf edge ({a},{b}) does not point at the sink")
            counts[a] += 1
        for i, k in counts.items():
            if k < 1:
                raise LeafShapeError(f"leaf vertex {i} has no edge to the sink")
        return tuple(counts[i] - 1 for i in range(1, sink))

    def test_leaf_shape_messages(self):
        cases = [
            (path_graph(3), "leaf edge (1,2) does not point at the sink"),
            (DirectedMultigraph(3, ((0, 1), (0, 2), (1, 2)), first_vertex=0),
             "leaf has a source edge pointing at the sink"),
            (DirectedMultigraph(3, ((1, 3),)), "leaf vertex 2 has no edge to the sink"),
        ]
        for graph, message in cases:
            with pytest.raises(LeafShapeError) as plain:
                leaf_census([graph])
            assert str(plain.value) == message
            with pytest.raises(LeafShapeError) as reference:
                self.reference_composition(graph)
            assert str(reference.value) == message

    def test_composition_matches_reference(self):
        # every family graph, with and without a source, as a would-be leaf:
        # the same composition or the same LeafShapeError message
        graphs = list(iter_family(4, 6))
        graphs += [attach_source(g, (1,) * (g.vertex_count - 1)) for g in graphs[::7]]
        graphs += [
            DirectedMultigraph(4, ((0, 2), (0, 1), (1, 3), (2, 3), (2, 3)), first_vertex=0),
            DirectedMultigraph(4, ((0, 3), (1, 3), (2, 3)), first_vertex=0),
            DirectedMultigraph(1, ()),
            DirectedMultigraph(1, (), first_vertex=0),
        ]
        shapes = set()
        for g in graphs:
            try:
                expected = self.reference_composition(g)
            except LeafShapeError as exc:
                expected = str(exc)
            try:
                got = reduction._leaf_composition(g)
            except LeafShapeError as exc:
                got = str(exc)
            assert got == expected, g
            shapes.add(type(got))
        assert shapes == {str, tuple}

    def test_json_round_trip(self):
        census = leaf_census(canonical_reduction_tree(complete_graph(4)))
        data = census_to_json(census)
        assert {tuple(item["composition"]): item["count"] for item in data} == census


class TestTreeCensus:
    """The census of the interned tree against the census of the streamed
    leaves, which walks every node."""

    def test_family(self):
        graphs = list(iter_family(5, 7))
        assert len(graphs) == 2560
        for g in graphs:
            assert tree_census(g) == leaf_census(iter_reduction_leaves(g)), g

    @pytest.mark.parametrize("nv, c", [
        (4, (3, 2, 2)), (5, (3, 1, 2, 2)), (6, (1, 2, 1, 1, 1)), (7, (2, 1, 1, 3, 1, 1)),
    ])
    def test_complete_graphs(self, nv, c):
        g = complete_graph(nv)
        census = tree_census(g)
        assert census == leaf_census(iter_reduction_leaves(g))
        assert tree_census(g, c) == leaf_census(augmented_levels(g, c)[-1]) == census

    def test_checks_c(self):
        with pytest.raises(ValueError, match="c must have 3 entries"):
            tree_census(complete_graph(4), (1, 1))
        with pytest.raises(ValueError, match="must be positive"):
            dot_lines(complete_graph(4), (1, 0, 1))

    def test_large_c_costs_no_more(self):
        # the source edges are never built: a walk of the augmented graph
        # would carry all sum(c) of them in every node
        g = complete_graph(4)
        tracemalloc.start()
        try:
            census = tree_census(g, (1, 10**6, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census == tree_census(g)
        assert peak < 10**6

    def test_k8_is_a_catalan_product(self):
        # prod_{i=1}^{6} Cat(i) leaves (Chan-Robbins-Yuen), each composition
        # j counted count(j - out, 0) times; the whole tree has 862,738 nodes
        g = complete_graph(8)
        census = tree_census(g)
        assert sum(census.values()) == prod(comb(2 * i, i) // (i + 1) for i in range(1, 7)) == 776160
        terms = LidskiiTerms(g)
        assert census == {j: k for j in terms.compositions if (k := terms.shifted_count(j))}
        assert tree_census(g, node_cap=862738) == census
        with pytest.raises(NodeCapExceeded):
            tree_census(g, node_cap=862737)


class TestZeroVertexChildren:
    def test_single_out_edge_kept(self):
        g = DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3)), first_vertex=1)
        node = ProvenancedGraph.as_root(g)
        kept = zero_vertex_dissection_children(node, 2)
        assert len(kept) == 1  # one tree total, one edge at the appended vertex

    def test_two_by_two(self):
        g = DirectedMultigraph(3, ((1, 2), (2, 3), (2, 3)))
        node = ProvenancedGraph.as_root(g)
        # full sets: |I|=1, |O|=2, two trees, exactly one has a single edge at
        # the appended left vertex
        kept = zero_vertex_dissection_children(node, 2)
        assert len(kept) == 1

    def test_vertex_must_be_interior(self):
        # the first vertex of K4 has three out-edges, so no tree passes the
        # one-edge filter; the arguments are still checked
        with pytest.raises(ValueError, match="vertex 1 is not interior"):
            zero_vertex_dissection_children(ProvenancedGraph.as_root(complete_graph(4)), 1)

    def test_kept_count_formula(self):
        # on a fan-with-source leaf, the kept count at vertex i is
        # binom(c_i + j_i - 1, c_i - 1)
        for ci, ji in ((2, 2), (3, 1), (1, 3), (2, 0)):
            leaf = attach_source(build_gm((ji + 1, 1)), (ci, 1))
            node = ProvenancedGraph.as_root(leaf)
            kept = zero_vertex_dissection_children(node, 1)
            assert len(kept) == comb(ci + ji - 1, ci - 1)


class TestUnimodularDissection:
    def test_k4_counts(self):
        assert len(unimodular_dissection(complete_graph(4), (1, 1, 1))) == 2
        assert len(unimodular_dissection(complete_graph(4), (3, 2, 2))) == 22

    def test_path(self):
        cells = unimodular_dissection(path_graph(3), (1, 1))
        assert len(cells) == 1

    def test_rejects_non_integer_c(self):
        # int() would truncate c to (1, 1, 1), which has 2 cells
        for fn in (unimodular_dissection, dissection_cell_counts):
            with pytest.raises(ValueError, match=r"^c entry 0 = 1\.5 is not an integer$"):
                fn(complete_graph(4), (1.5, 1, 1))

    def test_cell_count_equals_flow_count(self):
        from flowpoly.lidskii import in_plus_c_netflow

        for c in ((1, 1, 1), (2, 1, 2)):
            g = complete_graph(4)
            cells = unimodular_dissection(g, c)
            assert len(cells) == count_flows(FlowInstance(g, in_plus_c_netflow(g, c)))

    def test_cells_have_simplex_vertex_counts(self):
        g = complete_graph(4)
        c = (3, 2, 2)
        dim = (6 + 7) - 5 + 1  # |E(G(c))| - |V| + 1
        for cell in unimodular_dissection(g, c):
            assert len(cell.vertices) == dim + 1
            assert len(set(cell.vertices)) == len(cell.vertices)

    def test_vertices_are_path_indicators(self):
        g = path_graph(3)
        cells = unimodular_dissection(g, (1, 1))
        for cell in cells:
            for v in cell.vertices:
                assert set(v) <= {0, 1}


def zero_entry_levels(root, n):
    """The nodes the zero-entry reductions at the vertices 1..n, in
    increasing order, make from root, level by level; the last level holds
    the terminals in the order of the depth-first walk."""
    levels = [[root]]
    for vertex in range(1, n + 1):
        levels.append(
            [child for node in levels[-1] for child in zero_vertex_dissection_children(node, vertex)]
        )
    return levels


def terminal_cells(terminals):
    """Each terminal's path indicator flows through its coordinate map: its
    unit source-to-sink flows, in the reverse of the order iter_flows
    yields them, are its paths depth first with out-edges in index order."""
    return [
        tuple(phi_map(t, v)
              for v in reversed(enumerate_flows(FlowInstance(t.graph, unit_source_sink_netflow(t.graph)))))
        for t in terminals
    ]


def shape_plain(j):
    """The plain leaf of composition j: j_i + 1 edges (i, sink) per vertex
    i, in canonical order."""
    sink = len(j) + 1
    return DirectedMultigraph(sink, tuple((i, sink) for i, ji in enumerate(j, 1) for _ in range(ji + 1)))


def shape_graph(c, j):
    """The shape graph of the leaf shape (c, j): c_i edges (0, i), then the
    edges of shape_plain(j)."""
    sources = tuple((0, i) for i, ci in enumerate(c, 1) for _ in range(ci))
    return DirectedMultigraph(len(c) + 2, sources + shape_plain(j).edges, 0)


def shape_root(c, j):
    """The shape graph of the leaf shape (c, j) as a root of its own."""
    return ProvenancedGraph.as_root(shape_graph(c, j))


def shape_cells(c, j):
    """The cells of the leaf shape (c, j) as flows on the shape edges:
    pushed through the plain leaf, as a root of its own, which lifts back to
    the shape graph."""
    return list(reduction._push_forward(ProvenancedGraph.as_root(shape_plain(j)), c, j))


def assert_node_charge(c, j, levels):
    """At the plain leaf of j, as a graph of its own, the dissection at c
    charges the walk's nodes plus the nodes the zero-entry reductions make
    (levels, as zero_entry_levels gives them): a cap of that many passes,
    one less raises."""
    graph = shape_plain(j)
    cap = canonical_reduction_tree(graph).node_count + sum(map(len, levels[1:]))
    assert dissection_cell_counts(graph, c, node_cap=cap) == [(0, tuple(j), len(levels[-1]))]
    with pytest.raises(NodeCapExceeded):
        dissection_cell_counts(graph, c, node_cap=cap - 1)


def reference_dissection(graph, c):
    """Per-leaf dissection with no shape cache: every leaf of the source
    tree runs its own zero-entry reductions at the vertices 1..n, and each
    terminal's path indicator flows go through its own coordinate map.
    Also returns the nodes made by those reductions."""
    n = graph.vertex_count - 1
    cells = []
    nodes = 0
    for leaf_index, leaf in enumerate(augmented_levels(graph, c)[-1]):
        (composition,) = leaf_census([leaf])
        levels = zero_entry_levels(leaf, n)
        nodes += sum(map(len, levels[1:]))
        cells.extend(SimplexCell(v, leaf_index, composition) for v in terminal_cells(levels[-1]))
    return cells, nodes


def catalan(i):
    return comb(2 * i, i) // (i + 1)


class TestShapeCache:
    """unimodular_dissection dissects each leaf shape (c, j) once and maps
    the cells into every leaf of that shape."""

    def test_equals_reference_on_family(self):
        instances = 0
        for g in iter_family(4, 6):
            for c in product((1, 2), repeat=g.vertex_count - 1):
                assert unimodular_dissection(g, c) == reference_dissection(g, c)[0], (g.edges, c)
                instances += 1
        assert instances == 1488

    def test_equals_reference_k5(self):
        g, c = complete_graph(5), (3, 1, 2, 2)
        assert unimodular_dissection(g, c) == reference_dissection(g, c)[0]

    def test_cell_counts_are_multiset_products(self):
        for g, c in ((complete_graph(4), (3, 2, 2)), (complete_graph(5), (3, 1, 2, 2)),
                     (path_graph(3), (2, 3))):
            counts = dissection_cell_counts(g, c)
            for leaf_index, composition, cells in counts:
                assert cells == prod(multiset_coeff(ci, ji) for ci, ji in zip(c, composition))
            per_leaf = {}
            for cell in unimodular_dissection(g, c):
                key = (cell.leaf_index, cell.leaf_composition)
                per_leaf[key] = per_leaf.get(key, 0) + 1
            assert [((leaf, comp), cells) for leaf, comp, cells in counts] == list(per_leaf.items())

    def test_k6_total_is_catalan_product(self):
        counts = dissection_cell_counts(complete_graph(6), (2,) * 5)
        assert len(counts) == 140
        assert sum(cells for _, _, cells in counts) == prod(catalan(i) for i in range(1, 6)) == 5880

    def test_counts_build_no_staircases(self, monkeypatch):
        # the counts are products of per-vertex binomials; at c = (1, 2000, 1)
        # the staircases of vertex 2 alone would be 2,000 trees of 2,001 edges
        def refuse(*args):
            raise AssertionError("staircases were built")

        monkeypatch.setattr(reduction, "_staircases", refuse)
        counts = dissection_cell_counts(complete_graph(4), (1, 2000, 1))
        assert sum(cells for _, _, cells in counts) == 2001

    def test_cached_shape_shares_repeated_values(self):
        # The staircase cache outlives every call.  It holds each vertex's
        # staircases once, and a cell is one staircase per vertex, so what a
        # run leaves in it grows with the sum of the staircase counts, not
        # the product.
        c, j = (2,) * 5, (0, 1, 1, 1, 2)
        ((_, _, _, shape_counts),) = reduction._dissected_leaves(
            shape_plain(j), c, reduction.DEFAULT_NODE_CAP
        )
        counts = [len(trees) for trees in reduction._staircases(c, j)]
        assert counts == list(shape_counts) == [multiset_coeff(2, k) for k in j] == [1, 2, 2, 2, 3]
        levels = zero_entry_levels(shape_root(c, j), len(c))
        assert prod(counts) == len(levels[-1]) == 24
        assert shape_cells(c, j) == terminal_cells(levels[-1])
        assert_node_charge(c, j, levels)

    def test_closed_form_equals_zero_entry_reductions(self):
        # every shape with n <= 3, c_i in 1..3 and j_i in 0..2: the same
        # cells in the same order, and the nodes the walk makes, as the node
        # budget charges them
        shapes = 0
        for n in range(1, 4):
            for c, j in product(product(range(1, 4), repeat=n), product(range(3), repeat=n)):
                levels = zero_entry_levels(shape_root(c, j), n)
                assert shape_cells(c, j) == terminal_cells(levels[-1]), (c, j)
                assert_node_charge(c, j, levels)
                shapes += 1
        assert shapes == 9 + 81 + 729

    def test_leaf_edges_must_match_shape(self, monkeypatch):
        real = iter_reduction_leaves

        def reversed_leaves(graph, **kwargs):
            for leaf in real(graph, **kwargs):
                g = leaf.graph
                flipped = DirectedMultigraph(g.vertex_count, g.edges[::-1], g.first_vertex)
                yield ProvenancedGraph(flipped, leaf.provenance[::-1], leaf.root)

        monkeypatch.setattr(reduction, "iter_reduction_leaves", reversed_leaves)
        with pytest.raises(LeafShapeError):
            unimodular_dissection(complete_graph(4), (1, 1, 1))
        with pytest.raises(LeafShapeError):
            dissection_cell_counts(complete_graph(4), (1, 1, 1))
        # the plain walk and its leaf checks come before the check of c
        with pytest.raises(LeafShapeError):
            dissection_cell_counts(complete_graph(4), (0, 1, 1))

    def test_long_source_fan_is_not_built(self):
        # the counts read the leaf shape (c, j) off c and j alone; a shape
        # graph would hold sum(c) source edges, here a million
        tracemalloc.start()
        try:
            counts = dissection_cell_counts(path_graph(3), (1, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [(0, (0, 0), 1)]
        assert peak < 10**6

    def test_overlapping_provenance_rejected(self, monkeypatch):
        # path 1 -> 2 with c = (1,): the plain leaf is the root, edge (1,2),
        # lifted to edges (0,1), (1,2), and the dissection sums them into one
        # edge (0,2).  The lift moves the plain provenance up by sum(c) = 1,
        # so a plain provenance {-1, 0} lands on {0, 1} and overlaps the
        # source edge's {0}: the path counts root edge 0 twice, the cell
        # vertex leaves the affine span, and the certificate refuses it.
        def overlapping_leaves(graph, **kwargs):
            (leaf,) = iter_reduction_leaves(graph)
            yield ProvenancedGraph._from_checked(leaf.graph, (frozenset((-1, 0)),), leaf.root)

        monkeypatch.setattr(reduction, "iter_reduction_leaves", overlapping_leaves)
        assert [cell.vertices for cell in unimodular_dissection(path_graph(2), (1,))] == [((2, 1),)]
        with pytest.raises(ValueError, match="fiber"):
            verify_dissection(path_graph(2), (1,))


def augmented_walk_dissection(graph, c):
    """The cells and the per-leaf cell counts as the source tree's own walk
    gives them: each leaf of augmented_levels(graph, c) cut by its shape,
    the cells' vertices pushed through that leaf's own provenance."""
    c = tuple(c)
    cells, counts = [], []
    for leaf_index, leaf in enumerate(augmented_levels(graph, c)[-1]):
        (composition,) = leaf_census([leaf])
        assert leaf.graph.edges == shape_graph(c, composition).edges

        def vector(pair, leaf=leaf):
            vec = [0] * leaf.root.edge_count
            for k in pair:
                for d in leaf.provenance[k]:
                    vec[d] += 1
            return tuple(vec)

        staircases = reduction._staircases(c, composition)
        blocks = [[tuple(map(vector, tree)) for tree in trees] for trees in staircases]
        before = len(cells)
        cells.extend(SimplexCell(tuple(chain.from_iterable(parts)), leaf_index, composition)
                     for parts in product(*blocks))
        counts.append((leaf_index, composition, len(cells) - before))
    return cells, counts


class TestSharedWalk:
    """The dissection walks the plain tree once and lifts its leaves to
    every c; the cells are those of the source tree's own walk."""

    @staticmethod
    def assert_same(graph, c):
        cells, counts = augmented_walk_dissection(graph, c)
        assert unimodular_dissection(graph, c) == cells, (graph.edges, c)
        assert dissection_cell_counts(graph, c) == counts, (graph.edges, c)
        plain = reduction._plain_tree(graph, reduction.DEFAULT_NODE_CAP)
        assert unimodular_dissection(graph, c, _plain=plain) == cells, (graph.edges, c)

    def test_family(self):
        instances = 0
        for g in iter_family(4, 6):
            for c in product((1, 2), repeat=g.vertex_count - 1):
                self.assert_same(g, c)
                instances += 1
        assert instances == 1488

    def test_k4_322(self):
        self.assert_same(complete_graph(4), (3, 2, 2))

    def test_one_walk_per_graph_in_the_suite(self, monkeypatch):
        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        real = iter_reduction_leaves
        walks = []

        def counted(graph, **kwargs):
            walks.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(reduction, "iter_reduction_leaves", counted)
        result = run_dissection_suite(4, 5, 2)
        assert result.passed
        assert walks == list(iter_family(4, 5))


class TestDissectionBudget:
    """The leaf walk and the zero-entry reductions share one node budget."""

    def test_walk_plus_dissection_exceed_cap(self):
        g, c = complete_graph(4), (3, 2, 2)
        walk = sum(map(len, augmented_levels(g, c)))
        _, dissection = reference_dissection(g, c)
        assert (walk, dissection) == (4, 60)
        cap = max(walk, dissection)
        for fn in (unimodular_dissection, dissection_cell_counts):
            with pytest.raises(NodeCapExceeded):
                fn(g, c, node_cap=cap)
            with pytest.raises(NodeCapExceeded):
                fn(g, c, node_cap=walk + dissection - 1)
            assert fn(g, c, node_cap=walk + dissection)

    def test_walk_alone_exceeds_cap(self):
        with pytest.raises(NodeCapExceeded):
            dissection_cell_counts(complete_graph(5), (1, 1, 1, 1), node_cap=3)

    def test_cells_cap_raises_before_first_cell(self):
        # the whole budget is spent before the first leaf, not leaf by leaf
        g, c = complete_graph(4), (3, 2, 2)
        with pytest.raises(NodeCapExceeded):
            next(iter_dissection_cells(g, c, node_cap=63))
        assert len(list(iter_dissection_cells(g, c, node_cap=64))) == 22


class TestDotExport:
    def test_contains_nodes_and_arcs(self):
        tree = canonical_reduction_tree(complete_graph(4))
        dot = "".join(dot_lines(complete_graph(4)))
        assert dot.startswith("digraph reduction_tree")
        assert dot.count("label=") >= tree.node_count
        assert "i=2" in dot and "i=3" in dot

    # sha256 of the DOT rendering of the materialized canonical_reduction_tree,
    # which the streamed lines were checked equal to while both existed
    @pytest.mark.parametrize("graph, c, digest", [
        (complete_graph(4), None,
         "33910c6ae9d906610747b796813430b5f0af5bff1ccc947b83b423aacdfdd553"),
        (complete_graph(4), (3, 2, 2),
         "90feb6f42cd104a9eb0596102cd3f2f260e640a9a773edac0c05429e0decd6ca"),
        (complete_graph(5), None,
         "f570f7671150e902e721b65fdedc880d2e3e8a711dd67ebfdeb6534c1ceb208c"),
        (complete_graph(5), (3, 1, 2, 2),
         "46cd85a33960ce50e2bda3cf8f7458255d94d9502a9c06128afb855396edfb15"),
        (complete_graph(6), None,
         "e66397559ddfd2ac2cb62a355a7c3d064226351cac34738743c6f1d50612fbb7"),
        (complete_graph(6), (1, 2, 1, 1, 1),
         "adac2fdbb38fc695a0a4efa0cc94d02f2e974153667663b204880feae5b1d5c5"),
        (path_graph(3), None,
         "1dc176c7ec945a3d0cd92a1fba967c18b768bba7e45160502f39590ae7a87c05"),
        (worked_example_root(), (1, 2, 1),
         "71886d574dd2100648124a79be643fa76ae01c6a3482ccecccba32a519986bfe"),
    ], ids=["K4", "K4 c", "K5", "K5 c", "K6", "K6 c", "path", "worked example c"])
    def test_streamed_equals_materialized(self, graph, c, digest):
        dot = "".join(dot_lines(graph, c))
        assert hashlib.sha256(dot.encode()).hexdigest() == digest

    def test_k7_unchanged(self):
        dot = "".join(dot_lines(complete_graph(7)))
        assert hashlib.sha256(dot.encode()).hexdigest() == (
            "ccef09c4ab3f02c7f6c29c62489188de70ff4f2f32abbb869eb2fdaa03894801"
        )

    def test_single_node(self):
        # a tree with no reductions: one box and no arc
        lines = list(dot_lines(DirectedMultigraph(2, ((1, 2), (1, 2)))))
        assert lines == [
            "digraph reduction_tree {\n", "  node [shape=box];\n",
            '  n0 [label="1→2 ×2"];\n', "}\n",
        ]

    def test_walk_finishes_before_the_first_line(self):
        # the cap is hit while dot_lines runs, not while its lines are read
        with pytest.raises(NodeCapExceeded):
            dot_lines(complete_graph(5), node_cap=10)
        assert next(dot_lines(complete_graph(5), node_cap=16)) == "digraph reduction_tree {\n"

    def test_builds_no_tree_nodes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree node was built")

        monkeypatch.setattr(reduction.ReductionTreeNode, "__init__", refuse)
        assert "".join(dot_lines(complete_graph(4))).endswith("}\n")


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_reduction_preserves_flow_counts(data):
    """Any single full reduction splits the polytope: child counts sum to
    the parent count for nice netflows (subdivision, counted via interiors
    is not available; here we check the union property for counts at
    strictly positive netflow via inclusion of distinct images)."""
    graphs = [g for g in iter_family(4, 6) if g.vertex_count >= 3]
    g = data.draw(st.sampled_from(graphs))
    node = ProvenancedGraph.as_root(g)
    vertex = data.draw(st.sampled_from(range(2, g.last_vertex)))
    inc = tuple(in_edges_at(g, vertex))
    out = tuple(g.out_edges_at(vertex))
    if not out:
        return
    n = g.vertex_count - 1
    head = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    a = NetflowVector.completing(head)
    parent_flows = set(enumerate_flows(FlowInstance(g, a)))
    union = set()
    for tree in enumerate_noncrossing_trees(len(inc) + 1, len(out)):
        child = reduce_at_vertex(node, vertex, inc, out, tree)
        for f in enumerate_flows(FlowInstance(child.graph, a)):
            union.add(phi_map(child, f))
    assert union == parent_flows
