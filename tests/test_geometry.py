"""Lattice bases, unimodularity certificates, membership, reports."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from conftest import augmented_levels

import flowpoly.verify
from flowpoly import geometry, reduction

from flowpoly.geometry import (
    AmbientLattice,
    SimplexCell,
    contains_flow,
    is_unimodular,
    unit_source_sink_netflow,
    verify_dissection,
    verify_in_vector_bijection,
    verify_integral_equivalence,
)
from flowpoly.kostant import FlowInstance, enumerate_flows
from flowpoly.multigraph import (
    DirectedMultigraph,
    NetflowVector,
    apply_incidence,
    attach_source,
    complete_graph,
    path_graph,
)
from flowpoly.reduction import (
    ProvenancedGraph,
    NoncrossingTree,
    canonical_reduction_tree,
    reduce_at_vertex,
    unimodular_dissection,
)


def fundamental_cycle_basis(graph):
    """Independent reference lattice basis: fundamental cycles of a spanning
    forest, grown breadth first from each vertex not yet reached, one vector
    per non-forest edge."""
    parent = {}
    tree_edges = set()
    for start in graph.vertices:
        if start in parent:
            continue
        parent[start] = (None, None)
        order = [start]
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


DOUBLED_PATH = DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
DISCONNECTED = DirectedMultigraph(4, ((1, 2), (1, 2), (3, 4), (3, 4)))


class TestAmbientLattice:
    def test_path_trivial_lattice(self):
        lattice = AmbientLattice(path_graph(4))
        assert (lattice.dim, lattice.cotree) == (0, ())

    @pytest.mark.parametrize(
        "graph",
        [complete_graph(4), complete_graph(5), DOUBLED_PATH,
         attach_source(complete_graph(4), (3, 2, 2)), DISCONNECTED],
        ids=["K4", "K5", "doubled path", "augmented K4", "disconnected"],
    )
    def test_cotree_entries_are_coordinates_of_a_reference_basis(self, graph):
        # a lattice basis restricted to the cotree has determinant +-1
        # exactly when cotree entries are coordinates of the whole lattice
        lattice = AmbientLattice(graph)
        reference = fundamental_cycle_basis(graph)
        assert lattice.dim == len(reference)
        assert abs(_det([[vec[j] for j in lattice.cotree] for vec in reference])) == 1


def _det(rows):
    """Determinant by exact elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(len(m)):
        piv = next((i for i in range(j, len(m)) if m[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, len(m)):
            f = m[i][j] / m[j][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return det


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

    def test_disconnected_ambient_graph(self):
        ambient = FlowInstance(DISCONNECTED, (1, -1, 1, -1))
        assert AmbientLattice(DISCONNECTED).dim == 2
        assert is_unimodular(
            SimplexCell(vertices=((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1))), ambient
        )
        ambient = FlowInstance(DISCONNECTED, (2, -2, 1, -1))
        assert not is_unimodular(
            SimplexCell(vertices=((2, 0, 1, 0), (0, 2, 1, 0), (2, 0, 0, 1))), ambient
        )

    def test_vertices_off_one_fiber_raise(self):
        ambient = FlowInstance(DISCONNECTED, (1, -1, 1, -1))
        cell = SimplexCell(vertices=((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 1)))
        with pytest.raises(ValueError, match="fiber"):
            is_unimodular(cell, ambient)

    def test_random_flow_simplices_against_reference_basis(self):
        # k + 1 lattice points of a random flow polytope, k its dimension:
        # unimodular exactly when their edge vectors, solved in the reference
        # basis, have determinant +-1
        rng = random.Random(9)
        seen = Counter()
        for _ in range(400):
            nv = rng.randint(2, 5)
            pairs = [(a, b) for a in range(1, nv + 1) for b in range(a + 1, nv + 1)]
            edges = sorted(rng.choice(pairs) for _ in range(rng.randint(1, 6)))
            graph = DirectedMultigraph(nv, tuple(edges))
            flow = [rng.randint(0, 2) for _ in edges]
            ambient = FlowInstance(graph, apply_incidence(graph, flow))
            reference = fundamental_cycle_basis(graph)
            points = enumerate_flows(ambient)
            if len(points) <= len(reference):
                continue
            verts = rng.sample(points, len(reference) + 1)
            columns = [[Fraction(vec[j]) for vec in reference] for j in range(len(edges))]
            coords = [_solve(columns, [x - y for x, y in zip(v, verts[0])]) for v in verts[1:]]
            det = abs(_det(coords))
            assert is_unimodular(SimplexCell(vertices=tuple(verts)), ambient) == (det == 1)
            seen[min(det, 2)] += 1
        assert min(seen[0], seen[1], seen[2]) >= 20, seen

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

    def test_pairwise_check_in_default_report(self):
        report = verify_dissection(complete_graph(4), (2, 1, 1))
        assert report.passed
        names = [c.name for c in report.checks]
        assert names[-1] == "pairwise_interiors_disjoint" and len(names) == 5

    def test_spoiled_repeated_vertex_reported_at_its_cell(self, monkeypatch):
        # membership is tested once per distinct point; a spoiled copy of a
        # point that passed in earlier cells is still caught, in its own cell
        g, c = complete_graph(4), (3, 2, 2)
        spoiled, bad = off_polytope_spoil(c)
        monkeypatch.setattr(reduction, "unimodular_dissection", lambda *a, **kw: spoiled)
        check = verify_dissection(g, c).checks[0]
        assert check.name == "cell_vertices_in_polytope" and not check.passed
        assert check.details["counterexample"] == {"cell": 21, "vertex": list(bad)}

    @staticmethod
    def pairwise_counterexample(monkeypatch, spoiled):
        monkeypatch.setattr(reduction, "unimodular_dissection", lambda *a, **kw: spoiled)
        check = verify_dissection(complete_graph(4), (3, 2, 2)).checks[-1]
        assert check.name == "pairwise_interiors_disjoint" and not check.passed
        return check.details["counterexample"]

    def test_spoiled_duplicate_cell(self, monkeypatch):
        cells = unimodular_dissection(complete_graph(4), (3, 2, 2))
        found = self.pairwise_counterexample(monkeypatch, cells + [cells[5]])
        assert found == {"reason": "duplicate cell", "cells": [5, 22]}

    def test_spoiled_apex_on_the_same_side_of_a_shared_facet(self, monkeypatch):
        cells, b = reflected_apex_spoil()
        found = self.pairwise_counterexample(monkeypatch, cells)
        assert found == {"reason": "cells on the same side of a shared facet", "cells": [0, b]}

    def test_spoiled_flat_cell_has_no_side(self, monkeypatch):
        # b's apex moved into the hyperplane of its facet shared with cell 0
        cells, b = moved_apex_spoil(flat_apex)
        found = self.pairwise_counterexample(monkeypatch, cells)
        assert found == {"reason": "cells on the same side of a shared facet", "cells": [0, b]}

    def test_dropped_cell_leaves_a_gap(self, monkeypatch):
        # the facets the dropped cell shared now belong to one cell each, and
        # they lie inside the polytope
        cells = unimodular_dissection(complete_graph(4), (3, 2, 2))
        dropped = cells.pop(5)
        found = self.pairwise_counterexample(monkeypatch, cells)
        assert found["reason"] == "boundary facet off the polytope boundary"
        (j,) = found["cells"]
        assert len(set(cells[j].vertices) & set(dropped.vertices)) == len(dropped.vertices) - 1


def off_polytope_spoil(c):
    """The dissection of K4 at c with a point of its last cell that earlier
    cells share moved by minus twice a kernel vector: in the affine span,
    off the polytope.  Returns the cells and the moved point."""
    g = complete_graph(4)
    cells = unimodular_dissection(g, c)
    last = len(cells) - 1
    earlier = {v for cell in cells[:last] for v in cell.vertices}
    k = next(k for k, v in enumerate(cells[last].vertices) if v in earlier)
    w = fundamental_cycle_basis(attach_source(g, c))[0]
    bad = tuple(x - 2 * y for x, y in zip(cells[last].vertices[k], w))
    vertices = list(cells[last].vertices)
    vertices[k] = bad
    return cells[:last] + [replace(cells[last], vertices=tuple(vertices))], bad


def moved_apex_spoil(move, c=(3, 2, 2)):
    """The dissection of K4 at c with the apex of a facet neighbour b of
    cell 0 moved to move(cell 0's apex, b's apex, their shared facet's
    points)."""
    cells = unimodular_dissection(complete_graph(4), c)
    first = set(cells[0].vertices)
    b = next(j for j, cell in enumerate(cells)
             if len(first & set(cell.vertices)) == len(first) - 1)
    (apex_a,) = first - set(cells[b].vertices)
    (apex_b,) = set(cells[b].vertices) - first
    moved = move(apex_a, apex_b, sorted(first - {apex_a}))
    vertices = tuple(moved if v == apex_b else v for v in cells[b].vertices)
    cells[b] = replace(cells[b], vertices=vertices)
    return cells, b


def reflected_apex_spoil():
    """b's apex reflected through cell 0's apex: a lattice point of the
    affine span on cell 0's side of their shared facet."""
    return moved_apex_spoil(lambda a, b, facet: tuple(2 * x - y for x, y in zip(a, b)))


def opposite_sides_by_two_determinants(facet, apex_a, apex_b, coords):
    """Reference side test: with the facet's points in a fixed order, the
    determinant of their edge vectors and the apex's has the sign of the
    apex's side; the apexes lie on opposite sides when the two signs
    differ, and a zero determinant has no side."""
    base = coords(facet[0])
    rows = [[x - y for x, y in zip(coords(p), base)] for p in facet[1:]]
    side_a = _det(rows + [[x - y for x, y in zip(coords(apex_a), base)]])
    side_b = _det(rows + [[x - y for x, y in zip(coords(apex_b), base)]])
    return side_a * side_b < 0


def flat_apex(a, b, facet):
    """An apex moved into the hyperplane of its facet."""
    return tuple(x + y - z for x, y, z in zip(*facet[:3]))


class TestCertifyDissectionBox:
    """A spoil at the one inner c of K4's box (1..3)^3 fails that c alone,
    and the dissection suite's counterexample there is verify_dissection's
    report under the same spoil."""

    C = (2, 2, 2)

    @staticmethod
    def spoil_cells(monkeypatch, spoiled):
        real = reduction.unimodular_dissection

        def cells(graph, c, **kwargs):
            return spoiled if tuple(c) == TestCertifyDissectionBox.C else real(graph, c, **kwargs)

        monkeypatch.setattr(reduction, "unimodular_dissection", cells)

    def spoil(self, monkeypatch, check):
        if check == "cell_vertices_in_polytope":
            self.spoil_cells(monkeypatch, off_polytope_spoil(self.C)[0])
        elif check == "cells_unimodular_full_dimensional":
            self.spoil_cells(monkeypatch, moved_apex_spoil(flat_apex, self.C)[0])
        elif check == "pairwise_interiors_disjoint":
            cells = unimodular_dissection(complete_graph(4), self.C)
            self.spoil_cells(monkeypatch, cells + [cells[5]])
        elif check == "cell_count_equals_normalized_volume":
            real = geometry.source_split_volumes

            def volumes(counter, sources):
                sources = list(sources)
                for m, volume in zip(sources, real(counter, sources)):
                    yield volume + (tuple(m[:-1]) == self.C)

            monkeypatch.setattr(geometry, "source_split_volumes", volumes)
        else:  # the flow count at indeg - 1 + c, (1, 2, 3) on K4
            class Counter(geometry.FlowCounter):
                def count_box(self, box):
                    counts = super().count_box(box)
                    return [k + (h == (1, 2, 3)) for h, k in zip(product(*box), counts)]

            monkeypatch.setattr(geometry, "FlowCounter", Counter)

    @pytest.mark.parametrize("check", [
        "cell_vertices_in_polytope", "cells_unimodular_full_dimensional",
        "cell_count_equals_normalized_volume", "cell_count_equals_flow_count",
        "pairwise_interiors_disjoint"])
    def test_spoil_fails_its_c_alone(self, monkeypatch, check):
        k4 = complete_graph(4)
        box = [range(1, 4)] * 3
        honest = list(geometry.certify_dissection_box(k4, box))
        assert all(checks.passed for checks in honest)
        self.spoil(monkeypatch, check)
        failed = [checks.c for checks in geometry.certify_dissection_box(k4, box) if not checks.passed]
        assert failed == [self.C]
        monkeypatch.setenv("FLOWPOLY_WORKERS", "1")
        monkeypatch.setattr(flowpoly.verify, "iter_family", lambda *bounds: iter([k4]))
        result = flowpoly.verify.run_dissection_suite(4, 6, 3)
        assert result.instances == 27 and len(result.failures) == 1
        (failure,) = result.failures
        report = verify_dissection(k4, self.C)
        assert failure["c"] == list(self.C) and failure["report"] == report.to_json()
        assert not next(ch for ch in report.checks if ch.name == check).passed


class TestOrientedFacets:
    """The side of a facet read off one determinant per cell agrees with
    the two-determinant test on every facet shared by two cells, whatever
    the order of the vertices inside the cells."""

    @staticmethod
    def verdicts(graph, c, cells, rng):
        cotree = AmbientLattice(attach_source(graph, c)).cotree

        def coords(v):
            return [v[j] for j in cotree]

        ids: dict = {}
        owners: dict = {}
        for idx, cell in enumerate(cells):
            verts = list(cell.vertices)
            rng.shuffle(verts)
            named = [ids.setdefault(v, len(ids)) for v in verts]
            base = coords(verts[0])
            det = int(_det([[x - y for x, y in zip(coords(v), base)] for v in verts[1:]]))
            for facet, side in geometry._oriented_facets(named, det):
                owners.setdefault(facet, []).append((idx, side))
        points = {k: v for v, k in ids.items()}
        verdicts = []
        for facet, owned in owners.items():
            if len(owned) != 2:
                continue
            (a, side_a), (b, side_b) = owned
            pts = sorted(points[k] for k in points if facet >> k & 1)  # facet: a mask of ids
            (apex_a,) = set(cells[a].vertices) - set(pts)
            (apex_b,) = set(cells[b].vertices) - set(pts)
            opposite = side_a * side_b < 0
            assert opposite == opposite_sides_by_two_determinants(pts, apex_a, apex_b, coords)
            verdicts.append(opposite)
        return verdicts

    @pytest.mark.parametrize(
        "graph, c",
        [pytest.param(complete_graph(len(c) + 1), c, id=f"K{len(c) + 1}-{','.join(map(str, c))}")
         for c in [*product((1, 2), repeat=3), (3, 2, 2), (1, 1, 1, 1)]],
    )
    def test_dissection(self, graph, c):
        cells = unimodular_dissection(graph, c)
        verdicts = self.verdicts(graph, c, cells, random.Random(len(cells)))
        # n cells tiling a polytope are joined by n - 1 facets at least
        assert all(verdicts) and len(verdicts) >= len(cells) - 1

    def test_reflected_apex_spoil(self):
        cells, _ = reflected_apex_spoil()
        verdicts = self.verdicts(complete_graph(4), (3, 2, 2), cells, random.Random(5))
        assert not all(verdicts)


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
        for level in augmented_levels(complete_graph(4), (3, 2, 2)):
            for node in level:
                assert verify_integral_equivalence(node, (1, 0, 0, 0, -1)).passed


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
