"""Directed multigraphs with every edge oriented from its smaller endpoint
to its larger one.

Vertices are consecutive integers, either 1..k or 0..k; the 0..k form is
used for graphs that carry an extra source vertex in front.  Edges form an
ordered list of (tail, head) pairs.  Parallel edges are distinct entries,
and an edge's identity is its position in the list.  The canonical edge
order sorts by (tail, head) and keeps insertion order among parallel
copies, which makes every derived construction reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import index
from typing import Sequence


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""


def integers(values: Sequence, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints.  A value that is no integer (a float
    or a Fraction, even a whole one, or a string) raises ValueError naming
    it as entry k of what, where int() would truncate or parse it."""
    try:
        return tuple(map(index, values))
    except TypeError:
        for k, v in enumerate(values):
            if not hasattr(type(v), "__index__"):
                raise ValueError(f"{what} entry {k} = {v!r} is not an integer") from None
        raise


@dataclass(frozen=True)
class DirectedMultigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    first_vertex: int = 1

    def __post_init__(self):
        try:
            edges = tuple((index(a), index(b)) for a, b in self.edges)
        except TypeError:
            for k, edge in enumerate(self.edges):
                integers(edge, f"edge {k}")
            raise
        object.__setattr__(self, "edges", edges)
        if self.first_vertex not in (0, 1):
            raise ValueError("first_vertex must be 0 or 1")
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        lo, hi = self.first_vertex, self.last_vertex
        for k, (a, b) in enumerate(self.edges):
            if not (lo <= a <= hi and lo <= b <= hi):
                raise ValueError(f"edge {k} = ({a},{b}) out of vertex range [{lo},{hi}]")
            if a >= b:
                raise ValueError(f"edge {k} = ({a},{b}) must satisfy tail < head")

    @classmethod
    def _from_checked(
        cls, vertex_count: int, edges: tuple[tuple[int, int], ...], first_vertex: int
    ) -> "DirectedMultigraph":
        """A graph from parts that already satisfy __post_init__'s checks,
        stored as they are: int pairs in range with tail < head."""
        graph = object.__new__(cls)
        graph.__dict__.update(vertex_count=vertex_count, edges=edges, first_vertex=first_vertex)
        return graph

    @property
    def last_vertex(self) -> int:
        return self.first_vertex + self.vertex_count - 1

    @property
    def vertices(self) -> range:
        return range(self.first_vertex, self.last_vertex + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_edges_at(self, v: int) -> tuple[int, ...]:
        return tuple(k for k, (a, _) in enumerate(self.edges) if a == v)

    def edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def cotree(self) -> tuple[int, ...]:
        """Indices of the edges that close a cycle when a spanning forest
        is grown over the edges in order; every other edge joins two trees
        of the forest."""
        lo = self.first_vertex
        root = list(range(self.vertex_count))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        cotree = []
        for e, (a, b) in enumerate(self.edges):
            ra, rb = find(a - lo), find(b - lo)
            if ra == rb:
                cotree.append(e)
            else:
                root[ra] = rb
        return tuple(cotree)

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected multigraph: its
        spanning forest is a tree."""
        # a connected graph has a spanning tree; this also refuses a huge
        # vertex range with few edges before the forest is grown
        if self.edge_count < self.vertex_count - 1:
            return False
        return self.edge_count - len(self.cotree()) == self.vertex_count - 1


@dataclass(frozen=True)
class NetflowVector:
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", integers(self.entries, "netflow"))
        if not self.entries:
            raise ValueError("netflow vector cannot be empty")
        if sum(self.entries) != 0:
            raise ValueError(f"netflow entries must sum to zero, got sum {sum(self.entries)}")

    @property
    def nice_chamber(self) -> bool:
        """True when all entries except the last are nonnegative."""
        return all(e >= 0 for e in self.entries[:-1])

    def dilate(self, t: int) -> "NetflowVector":
        return NetflowVector(tuple(t * e for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @staticmethod
    def coerce(value) -> "NetflowVector":
        if isinstance(value, NetflowVector):
            return value
        return NetflowVector(tuple(value))

    @staticmethod
    def completing(first_entries: Sequence[int]) -> "NetflowVector":
        """Append the sink value -sum(first_entries)."""
        first = integers(first_entries, "netflow")
        return NetflowVector(first + (-sum(first),))


@dataclass(frozen=True)
class DegreeStats:
    vertices: tuple[int, ...]
    outdeg: tuple[int, ...]
    indeg: tuple[int, ...]
    out_shift: tuple[int, ...]  # outdeg - 1, per non-sink vertex
    in_shift: tuple[int, ...]   # indeg - 1, per non-sink vertex


def degree_stats(graph: DirectedMultigraph) -> DegreeStats:
    """Per-vertex degree counts plus the shifted statistics outdeg-1 and
    indeg-1 for all non-sink vertices."""
    verts = tuple(graph.vertices)
    lo = graph.first_vertex
    outdeg = [0] * graph.vertex_count
    indeg = [0] * graph.vertex_count
    for a, b in graph.edges:
        outdeg[a - lo] += 1
        indeg[b - lo] += 1
    return DegreeStats(
        vertices=verts,
        outdeg=tuple(outdeg),
        indeg=tuple(indeg),
        out_shift=tuple(d - 1 for d in outdeg[:-1]),
        in_shift=tuple(d - 1 for d in indeg[:-1]),
    )


def checked_degree_stats(graph: DirectedMultigraph) -> DegreeStats:
    """degree_stats of a graph that the closed formulas and the reductions
    accept: connected, with an out-edge at every non-sink vertex.  Every
    edge runs from a lower vertex to a higher one, so when every non-sink
    vertex has an out-edge, each vertex reaches the sink and the graph is
    connected; the spanning forest is grown only when one has none, to
    tell the two errors apart."""
    # the tails are the non-sink vertices with an out-edge
    if len({a for a, _ in graph.edges}) < graph.vertex_count - 1 and not graph.is_connected():
        raise ValueError("graph must be connected")
    stats = degree_stats(graph)
    for v, d in zip(stats.vertices[:-1], stats.outdeg[:-1]):
        if d == 0:
            raise ValueError(f"vertex {v} has no outgoing edge")
    return stats


def _checked_c(c: Sequence[int], graph: DirectedMultigraph) -> tuple[int, ...]:
    """c as a tuple of ints, after checking that it has one positive
    integer entry per non-sink vertex of the graph."""
    c = integers(c, "c")
    n = graph.vertex_count - 1
    if len(c) != n:
        raise ValueError(f"c must have {n} entries, one per non-sink vertex, got {len(c)}")
    for i, ci in enumerate(c):
        if ci < 1:
            raise ValueError(f"c[{i}] = {ci} must be positive")
    return c


def checked_box(box: Sequence[Sequence[int]], graph: DirectedMultigraph, low: int,
                what: str) -> list[Sequence[int]]:
    """The box product(*box) of netflow heads or c vectors as one range or
    tuple of ints per non-sink vertex, every entry an integer of at least
    low."""
    # a range holds ints already
    ranges = [r if type(r) is range else integers(r, f"{what} range {i}") for i, r in enumerate(box)]
    n = graph.vertex_count - 1
    if len(ranges) != n:
        raise ValueError(f"{what} box must have {n} ranges, one per non-sink vertex, got {len(ranges)}")
    for i, r in enumerate(ranges):
        if r and min(r) < low:
            raise ValueError(f"{what} range {i} holds {min(r)}, below {low}")
    return ranges


def attach_source(graph: DirectedMultigraph, c: Sequence[int]) -> DirectedMultigraph:
    """Add a source vertex 0 with c[i] parallel edges (0, i+1) prepended;
    the restriction to the original vertices equals the input graph."""
    if graph.first_vertex != 1:
        raise ValueError("attach_source expects a graph on vertices 1..n+1")
    c = _checked_c(c, graph)
    source_edges = []
    for i, ci in enumerate(c, start=1):
        source_edges.extend([(0, i)] * ci)
    return DirectedMultigraph._from_checked(graph.vertex_count + 1, tuple(source_edges) + graph.edges, 0)


def apply_incidence(graph: DirectedMultigraph, flow: Sequence) -> tuple:
    """Net outflow per vertex of an edge-value assignment (M times flow)."""
    if len(flow) != graph.edge_count:
        raise ValueError(f"flow has {len(flow)} coordinates, graph has {graph.edge_count} edges")
    lo = graph.first_vertex
    net = [0] * graph.vertex_count
    for (a, b), f in zip(graph.edges, flow):
        if f:
            net[a - lo] += f
            net[b - lo] -= f
    return tuple(net)


# --- graph file format -----------------------------------------------------
#
# First line: either "k" (vertices 1..k) or "0 k" (vertices 0..k).
# Each following line: "tail head [multiplicity]".  Blank lines and text
# after "#" are ignored.  The writer groups consecutive identical edges, so
# parse(format(g)) == g for every graph.  A file may ask for at most
# _MAX_EDGES edges in all, multiplicities included; the reader refuses more
# before it expands the line that would pass the limit.

_MAX_EDGES = 100_000


def parse_graph(text: str) -> DirectedMultigraph:
    header = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) == 1:
                header = (1, _parse_int(parts[0], lineno))
            elif len(parts) == 2:
                if parts[0] != "0":
                    raise GraphFormatError(
                        f"line {lineno}: two-field header must start with 0, got {parts[0]!r}"
                    )
                header = (0, _parse_int(parts[1], lineno))
            else:
                raise GraphFormatError(f"line {lineno}: header must be 'k' or '0 k'")
            first, last = header
            if last < first:
                raise GraphFormatError(f"line {lineno}: empty vertex range")
            continue
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'tail head [multiplicity]'")
        tail = _parse_int(parts[0], lineno)
        head = _parse_int(parts[1], lineno)
        mult = _parse_int(parts[2], lineno) if len(parts) == 3 else 1
        if mult < 1:
            raise GraphFormatError(f"line {lineno}: multiplicity must be positive")
        if len(edges) + mult > _MAX_EDGES:
            raise GraphFormatError(f"line {lineno}: the file asks for more than {_MAX_EDGES} edges")
        edges.extend([(tail, head)] * mult)
    if header is None:
        raise GraphFormatError("line 1: missing header line")
    first, last = header
    try:
        return DirectedMultigraph(last - first + 1, tuple(edges), first_vertex=first)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {token!r} is not an integer") from None


def format_graph(graph: DirectedMultigraph) -> str:
    if graph.first_vertex == 0:
        lines = [f"0 {graph.last_vertex}"]
    else:
        lines = [f"{graph.last_vertex}"]
    for (a, b), group in groupby(graph.edges):
        run = len(list(group))
        lines.append(f"{a} {b} {run}" if run > 1 else f"{a} {b}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> DirectedMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(graph: DirectedMultigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(graph))


def complete_graph(nv: int) -> DirectedMultigraph:
    """All pairs (i, j), i < j, on vertices 1..nv."""
    edges = tuple((i, j) for i in range(1, nv + 1) for j in range(i + 1, nv + 1))
    return DirectedMultigraph(nv, edges)
