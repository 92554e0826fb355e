"""Lattice bases, unimodularity certificates, membership, reports."""

from dataclasses import replace
from fractions import Fraction

import pytest

from flowpoly import reduction

from flowpoly.geometry import (
    AmbientLattice,
    SimplexCell,
    VerificationReport,
    contains_flow,
    integral_kernel_basis,
    is_unimodular,
    path_flow_vertices,
    unit_source_sink_netflow,
    verify_dissection,
    verify_in_vector_bijection,
    verify_integral_equivalence,
)
from flowpoly.kostant import FlowInstance
from flowpoly.multigraph import (
    DirectedMultigraph,
    NetflowVector,
    attach_source,
    complete_graph,
    incidence_matrix,
    path_graph,
)
from flowpoly.reduction import (
    ProvenancedGraph,
    NoncrossingTree,
    canonical_reduction_tree,
    reduce_at_vertex,
    reduction_tree_with_source,
    unimodular_dissection,
)


def fundamental_cycle_basis(graph):
    """Independent reference lattice basis: fundamental cycles of a spanning
    tree, one vector per non-tree edge."""
    parent = {graph.first_vertex: (None, None)}
    order = [graph.first_vertex]
    tree_edges = set()
    while order:
        v = order.pop(0)
        for e, (a, b) in enumerate(graph.edges):
            if e in tree_edges:
                continue
            w = None
            if a == v and b not in parent:
                w = b
            elif b == v and a not in parent:
                w = a
            if w is not None:
                parent[w] = (v, e)
                tree_edges.add(e)
                order.append(w)
    vectors = []
    for e, (a, b) in enumerate(graph.edges):
        if e in tree_edges:
            continue
        vec = [0] * graph.edge_count
        vec[e] = 1
        # walk both endpoints to the root, cancelling common parts
        def path_to_root(v):
            out = {}
            while parent[v][0] is not None:
                p, edge = parent[v]
                sign = 1 if graph.edges[edge][0] == v else -1
                out[edge] = sign
                v = p
            return out

        pa, pb = path_to_root(a), path_to_root(b)
        for edge, sign in pb.items():
            vec[edge] += sign
        for edge, sign in pa.items():
            vec[edge] -= sign
        vectors.append(tuple(vec))
    return vectors


class TestPathFlowVertices:
    def test_single_edge(self):
        g = DirectedMultigraph(2, ((1, 2),))
        assert path_flow_vertices(g) == [(1,)]

    def test_k4(self):
        verts = path_flow_vertices(complete_graph(4))
        assert len(verts) == 4
        inst = FlowInstance(complete_graph(4), NetflowVector((1, 0, 0, -1)))
        for v in verts:
            assert contains_flow(inst, v)

    def test_no_path(self):
        g = DirectedMultigraph(3, ((2, 3),))
        assert path_flow_vertices(g) == []

    def test_accepts_provenanced(self):
        node = ProvenancedGraph.as_root(path_graph(3))
        assert path_flow_vertices(node) == [(1, 1)]


class TestKernelBasis:
    def test_path_trivial_kernel(self):
        assert integral_kernel_basis(incidence_matrix(path_graph(4))) == []

    def test_k4_rank_and_membership(self):
        m = incidence_matrix(complete_graph(4))
        basis = integral_kernel_basis(m)
        assert len(basis) == 6 - 4 + 1
        for vec in basis:
            assert all(sum(row[j] * vec[j] for j in range(6)) == 0 for row in m)

    def test_spans_full_integer_kernel(self):
        # both bases must express each other integrally
        for graph in (complete_graph(4), complete_graph(5),
                      DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))):
            ours = integral_kernel_basis(incidence_matrix(graph))
            reference = fundamental_cycle_basis(graph)
            assert len(ours) == len(reference)
            assert _integrally_equivalent(ours, reference)


def _integrally_equivalent(basis_a, basis_b):
    """Each vector of either basis has integer coordinates in the other."""
    return _integer_span(basis_a, basis_b) and _integer_span(basis_b, basis_a)


def _integer_span(basis, vectors):
    if not basis:
        return not vectors
    cols = len(basis[0])
    for target in vectors:
        # solve sum x_i basis_i = target over the rationals
        rows = [[Fraction(basis[i][j]) for i in range(len(basis))] for j in range(cols)]
        rhs = [Fraction(t) for t in target]
        sol = _solve(rows, rhs)
        if sol is None or any(x.denominator != 1 for x in sol):
            return False
    return True


def _solve(rows, rhs):
    nvars = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for j in range(nvars):
        piv = next((i for i in range(r, len(aug)) if aug[i][j] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][j] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    sol = [Fraction(0)] * nvars
    for row_idx, j in enumerate(pivots):
        sol[j] = aug[row_idx][-1]
    return sol


class TestUnimodularity:
    # two parallel edges 1 -> 2: the flow polytope at netflow (t, -t) is a
    # segment of lattice length t in a rank-one lattice
    PARALLEL = DirectedMultigraph(2, ((1, 2), (1, 2)))

    def test_standard_simplex(self):
        ambient = FlowInstance(self.PARALLEL, (1, -1))
        assert is_unimodular(SimplexCell(vertices=((1, 0), (0, 1))), ambient)

    def test_doubled_segment(self):
        ambient = FlowInstance(self.PARALLEL, (2, -2))
        assert not is_unimodular(SimplexCell(vertices=((2, 0), (0, 2))), ambient)

    def test_dissection_cells_unimodular(self):
        g = complete_graph(4)
        c = (3, 2, 2)
        augmented = attach_source(g, c)
        ambient = FlowInstance(augmented, unit_source_sink_netflow(augmented))
        lattice = AmbientLattice(augmented)
        cells = unimodular_dissection(g, c)
        assert len(cells) == 22
        for cell in cells:
            assert is_unimodular(cell, ambient, lattice=lattice)

    def test_dimension_mismatch_raises(self):
        g = complete_graph(4)
        augmented = attach_source(g, (1, 1, 1))
        ambient = FlowInstance(augmented, unit_source_sink_netflow(augmented))
        cell = SimplexCell(vertices=((0,) * 9, (1,) + (0,) * 8))
        with pytest.raises(ValueError, match="vertices"):
            is_unimodular(cell, ambient)


class TestContainsFlow:
    def test_worked_example_image_point(self):
        # image point of the worked reduction example; its netflow
        # recomputes to (2, 1, 1, -4) exactly
        g = DirectedMultigraph(4, ((1, 4), (1, 4), (1, 2), (2, 4), (2, 4), (3, 4)))
        point = (0, 1, 1, 0, 2, 1)
        assert contains_flow(FlowInstance(g, NetflowVector((2, 1, 1, -4))), point)
        assert not contains_flow(FlowInstance(g, NetflowVector((2, 1, 0, -3))), point)

    def test_zero(self):
        g = path_graph(3)
        assert contains_flow(FlowInstance(g, NetflowVector((0, 0, 0))), (0, 0))

    def test_negative_coordinate(self):
        g = path_graph(3)
        assert not contains_flow(FlowInstance(g, NetflowVector((0, 0, 0))), (1, -1))

    def test_rational_point(self):
        g = complete_graph(4)
        inst = FlowInstance(g, NetflowVector((1, 0, 0, -1)))
        half = Fraction(1, 2)
        # midpoint of the direct edge and the 1->2->4 path
        point = (half, 0, half, 0, half, 0)
        assert contains_flow(inst, point)

    def test_length_mismatch(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            contains_flow(FlowInstance(g, NetflowVector((0, 0, 0))), (0,))


class TestVerifyDissection:
    def test_k4_ones(self):
        report = verify_dissection(complete_graph(4), (1, 1, 1))
        assert report.passed
        cells = next(c.details["cells"] for c in report.checks if "volume" in c.name)
        assert cells == 2

    def test_k4_322(self):
        report = verify_dissection(complete_graph(4), (3, 2, 2))
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_path(self):
        report = verify_dissection(path_graph(3), (1, 1))
        assert report.passed
        assert next(c.details["cells"] for c in report.checks if "flow_count" in c.name) == 1

    def test_debug_pairwise(self):
        report = verify_dissection(complete_graph(4), (2, 1, 1), debug_pairwise=True)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "pairwise_interiors_disjoint" in names

    def test_spoiled_repeated_vertex_reported_at_its_cell(self, monkeypatch):
        # membership is tested once per distinct point; a spoiled copy of a
        # point that passed in earlier cells is still caught, in its own cell
        g, c = complete_graph(4), (3, 2, 2)
        cells = unimodular_dissection(g, c)
        last = len(cells) - 1
        earlier = {v for cell in cells[:last] for v in cell.vertices}
        k = next(k for k, v in enumerate(cells[last].vertices) if v in earlier)
        # minus twice a kernel vector: in the affine span, off the polytope
        w = AmbientLattice(attach_source(g, c)).basis[0]
        bad = tuple(x - 2 * y for x, y in zip(cells[last].vertices[k], w))
        vertices = list(cells[last].vertices)
        vertices[k] = bad
        spoiled = cells[:last] + [replace(cells[last], vertices=tuple(vertices))]
        monkeypatch.setattr(reduction, "unimodular_dissection", lambda *a, **kw: spoiled)
        check = verify_dissection(g, c).checks[0]
        assert check.name == "cell_vertices_in_polytope" and not check.passed
        assert check.details["counterexample"] == {"cell": 21, "vertex": list(bad)}

    def test_report_round_trip(self):
        report = verify_dissection(path_graph(3), (2, 1))
        assert VerificationReport.from_json(report.to_json()) == report


class TestVerifyInVector:
    def test_k4(self):
        assert verify_in_vector_bijection(complete_graph(4), (1, 1, 1)).passed
        assert verify_in_vector_bijection(complete_graph(4), (3, 2, 2)).passed

    def test_path(self):
        assert verify_in_vector_bijection(path_graph(3), (4, 2)).passed


class TestVerifyIntegralEquivalence:
    def test_root_trivial(self):
        node = ProvenancedGraph.as_root(complete_graph(4))
        assert verify_integral_equivalence(node, (1, 1, 1, -3)).passed

    def test_worked_example_node(self):
        root = DirectedMultigraph(4, ((1, 4), (1, 4), (1, 2), (2, 4), (2, 4), (3, 4)))
        node = reduce_at_vertex(
            ProvenancedGraph.as_root(root),
            2,
            (2,),
            (3, 4),
            NoncrossingTree(2, 2, ((1, 1), (1, 2), (2, 2))),
        )
        assert verify_integral_equivalence(node, (2, 1, 0, -3)).passed

    def test_k4_leaves(self):
        tree = canonical_reduction_tree(complete_graph(4))
        for leaf in tree.leaves():
            assert verify_integral_equivalence(leaf.graph, (1, 1, 1, -3)).passed

    def test_source_tree_nodes(self):
        tree = reduction_tree_with_source(complete_graph(4), (3, 2, 2))
        for node in tree.nodes():
            assert verify_integral_equivalence(node.graph, (1, 0, 0, 0, -1)).passed


def test_volume_additivity_over_leaves():
    """Leaf polytopes tile the root polytope: normalized volumes add up."""
    from flowpoly.kostant import normalized_volume_oracle

    for g in (complete_graph(4), DirectedMultigraph(4, ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4)))):
        a = NetflowVector.completing((2, 1, 1)[: g.vertex_count - 1])
        total = normalized_volume_oracle(FlowInstance(g, a))
        tree = canonical_reduction_tree(g)
        parts = sum(
            normalized_volume_oracle(FlowInstance(leaf.graph.graph, a))
            for leaf in tree.leaves()
        )
        assert parts == total
