"""Geometric validation: unimodularity certificates against the
affine-span lattice, exact polytope membership, and the verification
reports that tie the dissection pipeline back to the brute-force counts.

The affine span of a flow polytope is a coset of the integer kernel of the
incidence matrix.  That matrix is totally unimodular, so the fundamental
cycles of any spanning forest are a basis of the kernel lattice: a lattice
vector is fixed by its entries on the cotree edges (those left out of the
forest), and any integer entries there extend to one.  Cotree entries are
therefore lattice coordinates, and a simplex is unimodular exactly when its
edge vectors, restricted to the cotree, have determinant +-1.

The dissection is certified per graph over a box of c vectors
(certify_dissection_box): one plain tree walk and one flow counter on the
graph serve every c, the volume coming from reciprocity with the source's
units split over its parallel edges (kostant.source_split_volumes).  Each c
yields its check outcomes, a DissectionChecks; its report is built only
when asked for, and verify_dissection is the box of one point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress, product, starmap
from operator import gt, sub
from typing import Iterator, NamedTuple, Sequence

from . import reduction
from .kostant import FlowCounter, FlowInstance, count_flows, enumerate_flows, source_split_volumes
from .multigraph import (
    DirectedMultigraph,
    NetflowVector,
    _checked_c,
    apply_incidence,
    attach_source,
    checked_box,
    degree_stats,
    integers,
)
from .lidskii import in_plus_c_netflow
from .reduction import DEFAULT_NODE_CAP, SimplexCell


# --- integer linear algebra -------------------------------------------------


def _det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        rkk = top[k]
        for i in range(k + 1, n):
            # columns up to k come out 0: they were 0 in both rows, or cancel
            rik = m[i][k]
            if rik or rkk != prev:  # else the row stays as it is
                m[i] = [(a * rkk - rik * b) // prev for a, b in zip(m[i], top)]
        prev = rkk
    return sign * m[n - 1][n - 1]


class AmbientLattice:
    """Lattice of the affine span of a flow polytope on a fixed graph,
    presented by the cotree of a spanning forest grown over the edges in
    order: the edges that close a cycle, one lattice coordinate each."""

    def __init__(self, graph: DirectedMultigraph):
        self.graph = graph
        self.cotree = graph.cotree()
        self.dim = len(self.cotree)


def is_unimodular(
    cell: SimplexCell, ambient: FlowInstance, *, lattice: AmbientLattice | None = None
) -> bool:
    """Unimodularity of a cell against the ambient polytope's affine-span
    lattice.  Raises if the cell does not have dim+1 vertices or leaves the
    affine span."""
    lat = lattice if lattice is not None else AmbientLattice(ambient.graph)
    verts = cell.vertices
    if len(verts) != lat.dim + 1:
        raise ValueError(f"cell has {len(verts)} vertices, ambient span needs {lat.dim + 1}")
    edges = [list(map(sub, v, verts[0])) for v in verts[1:]]
    if any(any(apply_incidence(lat.graph, e)) for e in edges):
        raise ValueError("cell vertices do not lie in one affine span fiber")
    # lattice coordinates: the cotree entries
    return abs(_det_bareiss([[e[j] for j in lat.cotree] for e in edges])) == 1


def contains_flow(inst: FlowInstance, point: Sequence) -> bool:
    """Exact membership: nonnegative coordinates and incidence * point equal
    to the netflow.  Rational points welcome."""
    graph = inst.graph
    if len(point) != graph.edge_count:
        raise ValueError(f"point has {len(point)} coordinates, graph has {graph.edge_count} edges")
    if any(x < 0 for x in point):
        return False
    return apply_incidence(graph, point) == inst.netflow.entries


# --- verification reports ---------------------------------------------------


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks.append(CheckResult(name, bool(passed), _jsonable(details)))

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details} for c in self.checks
            ],
        }


def unit_source_sink_netflow(graph: DirectedMultigraph) -> NetflowVector:
    """+1 at the first vertex, -1 at the last, 0 elsewhere."""
    entries = [0] * graph.vertex_count
    entries[0] = 1
    entries[-1] = -1
    return NetflowVector(tuple(entries))


class DissectionChecks(NamedTuple):
    """The outcomes of the five checks of verify_dissection at one c: the
    first counterexample of checks (a), (b) and (e), or None, and the three
    numbers that checks (c) and (d) compare."""

    c: tuple[int, ...]
    cells: int
    bad_vertex: dict | None
    dimension: int
    bad_cell: dict | None
    normalized_volume: int
    flow_count: int
    overlap: dict | None

    @property
    def passed(self) -> bool:
        return (self.bad_vertex is None and self.bad_cell is None and self.overlap is None
                and self.cells == self.normalized_volume == self.flow_count)

    def report(self) -> VerificationReport:
        report = VerificationReport(f"dissection c={self.c}")
        report.add("cell_vertices_in_polytope", self.bad_vertex is None,
                   cells=self.cells, counterexample=self.bad_vertex)
        report.add("cells_unimodular_full_dimensional", self.bad_cell is None,
                   dimension=self.dimension, counterexample=self.bad_cell)
        report.add("cell_count_equals_normalized_volume", self.cells == self.normalized_volume,
                   cells=self.cells, normalized_volume=self.normalized_volume)
        report.add("cell_count_equals_flow_count", self.cells == self.flow_count,
                   cells=self.cells, flow_count=self.flow_count)
        report.add("pairwise_interiors_disjoint", self.overlap is None, counterexample=self.overlap)
        return report


def verify_dissection(
    graph: DirectedMultigraph, c: Sequence[int], *, node_cap: int = DEFAULT_NODE_CAP
) -> VerificationReport:
    """Certify that the unimodular dissection of the source-augmented
    polytope P tiles it: certify_dissection_box at the one point c."""
    c = _checked_c(c, graph)
    return next(certify_dissection_box(graph, [(ci,) for ci in c], node_cap=node_cap)).report()


def certify_dissection_box(
    graph: DirectedMultigraph, box: Sequence[Sequence[int]], *, node_cap: int = DEFAULT_NODE_CAP
) -> Iterator[DissectionChecks]:
    """The checks of the unimodular dissection of the source-augmented
    polytope P at each c in product(*box), in that order; box holds a range
    of positive c entries per non-sink vertex.  Five checks, each run
    whatever the others find: (a) every cell vertex is a point of P; (b)
    every cell is a full-dimensional unimodular simplex; (c) the cell count
    equals the normalized volume of P; (d) the cell count equals the flow
    count of the original graph at netflow indeg-1+c; (e) the facet rule,
    pairwise_interiors_disjoint: no cell repeats a vertex or another cell,
    a facet of two cells has them on opposite sides, none lies in three or
    more, and a facet of one cell lies on the boundary of P, where some
    edge coordinate vanishes.

    By (a), (b) and (e), crossing a facet inside P trades one cell for
    another, so every generic point of P lies in the same number of cells.
    Each cell has normalized volume 1 by (b), so that number is 1 by (c):
    the cells tile P.  Raises ValueError when a cell vertex leaves the
    affine span of P.

    Per graph, one plain tree walk, which every source tree lifts, and one
    flow counter: (d) is one count_box over the shifted box, and (c) comes
    from Ehrhart-Macdonald reciprocity (kostant.source_split_volumes),
    whose premise holds for every graph the reductions accept.  Checks (a),
    (b) and (e) run per c."""
    plain = reduction._plain_tree(graph, node_cap)
    box = checked_box(box, graph, 1, "c")
    counter = FlowCounter(graph)
    flow_counts = counter.count_box([[ci + i for ci in r] for r, i in zip(box, degree_stats(graph).in_shift)])
    volumes = source_split_volumes(counter, ((*c, 0) for c in product(*box)))
    for c, flow_count in zip(product(*box), flow_counts):
        cells = reduction.unimodular_dissection(graph, c, node_cap=node_cap, _plain=plain)
        augmented = attach_source(graph, c)
        netflow = unit_source_sink_netflow(augmented).entries
        cotree = augmented.cotree()
        bits = [1 << j for j in range(augmented.edge_count)]

        # Cells share most of their vertices: each distinct point is tested
        # once and named by an id that indexes its lattice coordinates (its
        # cotree entries) and its support, a bit mask over the edges.
        ids: dict[tuple[int, ...], int] = {}
        coords: list[list[int]] = []
        supports: list[int] = []
        named_cells: list[list[int]] = []
        bad_vertex = None
        for idx, cell in enumerate(cells):
            for v in cell.vertices:
                if v not in ids:
                    if apply_incidence(augmented, v) != netflow:
                        raise ValueError("cell vertices do not lie in one affine span fiber")
                    if min(v) < 0 and bad_vertex is None:
                        bad_vertex = {"cell": idx, "vertex": list(v)}
                    ids[v] = len(coords)
                    coords.append(list(map(v.__getitem__, cotree)))
                    supports.append(sum(compress(bits, v)))
            named_cells.append(list(map(ids.__getitem__, cell.vertices)))

        dets = []
        bad_cell = None
        for idx, named in enumerate(named_cells):
            if len(named) != len(cotree) + 1:
                det, reason = 0, f"expected {len(cotree) + 1} vertices"
            else:
                base = coords[named[0]]
                det = _det_bareiss([list(map(sub, coords[k], base)) for k in named[1:]])
                reason = "determinant not +-1"
            dets.append(det)
            if abs(det) != 1 and bad_cell is None:
                bad_cell = {"cell": idx, "vertices": list(cells[idx].vertices), "reason": reason}

        yield DissectionChecks(c, len(cells), bad_vertex, len(cotree), bad_cell, next(volumes),
                               flow_count, _facet_rule(named_cells, dets, supports, len(bits)))


def _oriented_facets(named: Sequence[int], det: int) -> list[tuple[int, int]]:
    """The facets of a simplex given by its vertex ids, each keyed by the
    bit mask of its ids, with the side of it the simplex lies on: +1 or -1
    against the facet's vertices in increasing id order, 0 when det is 0.
    det is the determinant of the edge vectors from named[0] to the other
    vertices.

    The oriented volume of a simplex alternates in its d+1 vertices, so the
    side of the facet opposite sorted rank r is sign(det) times the parity
    of the sorting permutation times (-1)**(d - r)."""
    side = (det > 0) - (det < 0)
    if (sum(starmap(gt, combinations(named, 2))) + len(named) - 1) % 2:  # inversions + d
        side = -side
    mask = sum(map((1).__lshift__, named))
    return [(mask ^ (1 << k), -side if r % 2 else side) for r, k in enumerate(sorted(named))]


def _facet_rule(
    named_cells: list[list[int]], dets: list[int], supports: list[int], edge_count: int
):
    """The first breach of the facet rule, or None.  Cells are lists of
    vertex ids, with their determinants; supports are the vertices' edge
    supports as bit masks.  Every edge of a graph that the reductions
    accept lies on a source-sink path, so each edge coordinate is positive
    somewhere on P, and a facet where one vanishes lies on P's boundary."""
    for idx, named in enumerate(named_cells):
        if len(set(named)) != len(named):
            return {"reason": "repeated vertex inside a cell", "cell": idx}
    first: dict[int, int] = {}
    for idx, named in enumerate(named_cells):
        seen = first.setdefault(sum(map((1).__lshift__, named)), idx)
        if seen != idx:
            return {"reason": "duplicate cell", "cells": [seen, idx]}

    owners: dict[int, list[tuple[int, int]]] = {}
    for idx, (named, det) in enumerate(zip(named_cells, dets)):
        for facet, side in _oriented_facets(named, det):
            owners.setdefault(facet, []).append((idx, side))
    every_edge = (1 << edge_count) - 1
    for facet, owned in owners.items():
        if len(owned) > 2:
            return {"reason": "facet shared by more than two cells", "cells": [a for a, _ in owned]}
        if len(owned) == 2:
            (a, side_a), (b, side_b) = owned
            if side_a * side_b >= 0:
                return {"reason": "cells on the same side of a shared facet", "cells": [a, b]}
            continue
        touched = 0
        for k in named_cells[owned[0][0]]:
            if facet >> k & 1:
                touched |= supports[k]
        if touched == every_edge:
            return {"reason": "boundary facet off the polytope boundary", "cells": [owned[0][0]]}
    return None


def verify_in_vector_bijection(graph: DirectedMultigraph, c: Sequence[int]) -> VerificationReport:
    """Check that flows at netflow indeg-1+c on the graph correspond one to
    one with flows on the source-augmented graph at the matching netflow
    with a zero source entry, via restriction to the original edges."""
    c = integers(c, "c")
    a = in_plus_c_netflow(graph, c)
    augmented = attach_source(graph, c)
    big_netflow = NetflowVector((0,) + a.entries)
    small = FlowInstance(graph, a)
    big = FlowInstance(augmented, big_netflow)
    report = VerificationReport(f"in-vector bijection c={c}")

    small_count = count_flows(small)
    big_count = count_flows(big)
    report.add("counts_equal", small_count == big_count,
               small=small_count, augmented=big_count)

    source_width = augmented.edge_count - graph.edge_count
    small_flows = set(enumerate_flows(small))
    restricted = [f[source_width:] for f in enumerate_flows(big)]
    injective = len(set(restricted)) == len(restricted)
    onto = set(restricted) == small_flows
    report.add("restriction_injective", injective)
    report.add("restriction_image_matches", onto,
               missing=sorted(small_flows - set(restricted))[:3],
               extra=sorted(set(restricted) - small_flows)[:3])
    return report
