"""Graph-rewriting machinery that subdivides flow polytopes: bipartite
noncrossing trees, single reductions at a vertex with edge provenance,
canonical reduction trees, their leaf censuses and DOT renderings, and the
dissection of the source-augmented polytope into unimodular simplices.

A reduction at vertex i replaces ordered sub-multisets I (incoming) and O
(outgoing) of edges at i by, for every noncrossing tree T on left vertices
I + [i] and right vertices O, the edge set {tail(I_p) -> head(O_q)} over
tree edges, where the appended left vertex maps an out-edge to itself.
Every derived edge remembers the set s(e) of root edges it sums, so a
vector at any node maps back into root coordinates (c_d = sum over e with
d in s(e)); the tests' phi_map in tests/conftest.py is that map.

Noncrossing trees on ordered parts of sizes (l, r) are exactly the
staircases: left vertex p covers a contiguous interval of right vertices,
consecutive intervals overlap in a single right vertex.  Enumerating the
l-1 overlap points as a weakly increasing sequence in 1..r gives all
binom(l+r-2, l-1) of them.

Canonical trees are built on the plain graph only.  The source tree at c,
rooted at the source-augmented graph and never reducing a source edge, is
the plain tree lifted node for node: each node gets the c_i source edges
(0, i) first, with singleton provenance, and the plain provenance moves up
by sum(c).  The census at c, the DOT rendering at c and the dissection all
read the plain tree through that lift.

The census and the DOT rendering read the interned plain tree
(_interned_tree), which expands each distinct (depth, edge tuple) once:
K7 has 6,787 nodes but 425 distinct ones.  The materialized tree, the
streamed leaves and the dissection read provenance and walk every node;
the dissection, like the DOT rendering, spends its node budget first.

A source-tree leaf is the join over its vertices i of products of simplices
Delta_{c_i - 1} x Delta_{j_i}, and the zero-entry reductions cut each into
its staircase triangulation (De Loera-Rambau-Santos 2010, 6.2).  The
dissection computes those cells; the tests check them against the reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement, groupby, product
from math import comb, prod
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .multigraph import DirectedMultigraph, _checked_c, checked_degree_stats, integers

DEFAULT_NODE_CAP = 10**6


class NodeCapExceeded(RuntimeError):
    """Raised when a reduction pipeline would materialize too many graphs."""


class LeafShapeError(RuntimeError):
    """A reduction-tree leaf is not of the expected all-edges-to-the-sink
    shape; this indicates a bug in the reduction pipeline."""


# --- noncrossing trees -------------------------------------------------------


@dataclass(frozen=True)
class NoncrossingTree:
    """Spanning tree of the complete bipartite graph on ordered left
    vertices 1..left_size and right vertices 1..right_size with no pair of
    edges (p, q), (t, u) such that p < t and q > u."""

    left_size: int
    right_size: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = sorted(integers(edge, f"tree edge {k}") for k, edge in enumerate(self.edges))
        object.__setattr__(self, "edges", tuple(edges))
        problem = self.structure_error()
        if problem:
            raise ValueError(problem)

    def structure_error(self) -> str | None:
        """None for a noncrossing spanning tree, else what is wrong.  Those
        trees are the staircases: in sorted order the edges run from (1,1)
        to (l,r), and each one is one step right or down, (0,1) or (1,0),
        from the one before."""
        l, r = self.left_size, self.right_size
        if l < 1 or r < 1:
            return "both sides must be nonempty"
        for p, q in self.edges:
            if not (1 <= p <= l and 1 <= q <= r):
                return f"tree edge ({p},{q}) out of range"
        for (p, q), (t, u) in zip(self.edges, self.edges[1:]):
            if (p, q) == (t, u):
                return "repeated tree edge"
            if u < q:
                return f"edges ({p},{q}) and ({t},{u}) cross"
            if t - p + u - q != 1:
                return f"tree edges ({p},{q}) and ({t},{u}) are not one step apart"
        if self.edges[:1] != ((1, 1),) or self.edges[-1:] != ((l, r),):
            return f"tree edges must run from (1,1) to ({l},{r})"
        return None

    def edges_at_left(self, p: int) -> int:
        return sum(1 for pp, _ in self.edges if pp == p)

    @staticmethod
    def from_breaks(left_size: int, right_size: int, breaks: Sequence[int]) -> "NoncrossingTree":
        """Staircase with the given weakly increasing overlap points."""
        edges = []
        lo = 1
        for p in range(1, left_size + 1):
            hi = breaks[p - 1] if p < left_size else right_size
            edges.extend((p, q) for q in range(lo, hi + 1))
            lo = hi
        return NoncrossingTree(left_size, right_size, tuple(edges))


@lru_cache(maxsize=4096)
def enumerate_noncrossing_trees(left_size: int, right_size: int) -> tuple[NoncrossingTree, ...]:
    """All noncrossing spanning trees for the given ordered sizes, in
    lexicographic order of their overlap points."""
    if left_size < 1 or right_size < 1:
        raise ValueError("both sides must have at least one vertex")
    return tuple(
        NoncrossingTree.from_breaks(left_size, right_size, breaks)
        for breaks in combinations_with_replacement(range(1, right_size + 1), left_size - 1)
    )


# --- provenanced graphs and reductions ---------------------------------------


@dataclass(frozen=True)
class ProvenancedGraph:
    """A multigraph whose edges each carry the set of root edges they sum."""

    graph: DirectedMultigraph
    provenance: tuple[frozenset[int], ...]
    root: DirectedMultigraph

    def __post_init__(self):
        object.__setattr__(self, "provenance", tuple(frozenset(s) for s in self.provenance))
        if len(self.provenance) != self.graph.edge_count:
            raise ValueError("one provenance set per edge required")
        limit = self.root.edge_count
        for k, s in enumerate(self.provenance):
            if not s:
                raise ValueError(f"edge {k} has empty provenance")
            if min(s) < 0 or max(s) >= limit:
                raise ValueError(f"edge {k} references root edges outside 0..{limit - 1}")

    @classmethod
    def _from_checked(
        cls,
        graph: DirectedMultigraph,
        provenance: tuple[frozenset[int], ...],
        root: DirectedMultigraph,
    ) -> "ProvenancedGraph":
        """A node from parts that already satisfy __post_init__'s checks,
        stored as they are: one nonempty frozenset of root edge indices per
        edge."""
        node = object.__new__(cls)
        node.__dict__.update(graph=graph, provenance=provenance, root=root)
        return node

    @staticmethod
    def as_root(graph: DirectedMultigraph) -> "ProvenancedGraph":
        return ProvenancedGraph(graph, tuple(frozenset((e,)) for e in range(graph.edge_count)), graph)


class _Expansion:
    """The part of a reduction at one vertex that all of a node's children
    share: the argument checks, the kept edges with their provenance, and
    each sum edge with its united provenance, built the first time a tree
    uses it so that sibling children hold the same tuple and frozenset.

    A child is built from the node's checked parts without a second check:
    kept edges and their provenance are shared with the node, and a sum
    edge tail(I_p) -> head(O_q) runs from below the vertex to above it,
    with the union of two disjoint, nonempty, in-range sets."""

    __slots__ = ("node", "incoming", "outgoing", "kept", "_tree_edges")

    def __init__(
        self, node: ProvenancedGraph, vertex: int, incoming: Sequence[int], outgoing: Sequence[int]
    ):
        graph = node.graph
        edges = graph.edges
        if not (graph.first_vertex < vertex < graph.last_vertex):
            raise ValueError(f"vertex {vertex} is not interior")
        incoming = integers(incoming, "incoming")
        outgoing = integers(outgoing, "outgoing")
        for idx in incoming:
            if not (0 <= idx < len(edges)) or edges[idx][1] != vertex:
                raise ValueError(f"edge {idx} is not an incoming edge at vertex {vertex}")
        for idx in outgoing:
            if not (0 <= idx < len(edges)) or edges[idx][0] != vertex:
                raise ValueError(f"edge {idx} is not an outgoing edge at vertex {vertex}")
        if len(set(incoming)) != len(incoming) or len(set(outgoing)) != len(outgoing):
            raise ValueError("repeated edge index")
        removed = set(incoming) | set(outgoing)
        self.node = node
        self.incoming = incoming
        self.outgoing = outgoing
        self.kept = [item for k, item in enumerate(zip(edges, node.provenance)) if k not in removed]
        self._tree_edges: dict[tuple[int, int], tuple] = {}

    def _tree_edge(self, pq: tuple[int, int]) -> tuple:
        """(edge, provenance) for tree edge (p, q), kept for later trees:
        out-edge O_q itself at the appended left vertex, else the sum edge
        tail(I_p) -> head(O_q)."""
        p, q = pq
        edges = self.node.graph.edges
        provenance = self.node.provenance
        out_idx = self.outgoing[q - 1]
        if p > len(self.incoming):
            item = edges[out_idx], provenance[out_idx]
        else:
            in_idx = self.incoming[p - 1]
            s_in = provenance[in_idx]
            s_out = provenance[out_idx]
            if s_in & s_out:
                raise ValueError(
                    f"provenance sets of edges {in_idx} and {out_idx} overlap; "
                    "a root edge cannot repeat along a path"
                )
            item = (edges[in_idx][0], edges[out_idx][1]), s_in | s_out
        self._tree_edges[pq] = item
        return item

    def child(self, tree: NoncrossingTree) -> ProvenancedGraph:
        if tree.left_size != len(self.incoming) + 1 or tree.right_size != len(self.outgoing):
            raise ValueError(
                f"tree shape ({tree.left_size},{tree.right_size}) does not match "
                f"|I|+1={len(self.incoming) + 1}, |O|={len(self.outgoing)}"
            )
        built = self._tree_edges
        combined = self.kept + [built.get(pq) or self._tree_edge(pq) for pq in tree.edges]
        # stable: parallel edges keep their order, kept ones before new ones
        combined.sort(key=itemgetter(0))
        child_edges, child_provenance = zip(*combined)
        graph = self.node.graph
        return ProvenancedGraph._from_checked(
            DirectedMultigraph._from_checked(graph.vertex_count, child_edges, graph.first_vertex),
            child_provenance,
            self.node.root,
        )


def reduce_at_vertex(
    node: ProvenancedGraph,
    vertex: int,
    incoming: Sequence[int],
    outgoing: Sequence[int],
    tree: NoncrossingTree,
    *,
    _expansion: _Expansion | None = None,
) -> ProvenancedGraph:
    """Single reduction: delete the chosen incoming/outgoing edges at the
    vertex and add, per tree edge, the sum edge tail(I_p) -> head(O_q); the
    appended left vertex keeps an out-edge as itself.  Provenance sets are
    united and must be disjoint.  _expansion, when given, is the
    _Expansion of these same arguments, shared by sibling children."""
    if _expansion is None:
        _expansion = _Expansion(node, vertex, incoming, outgoing)
    return _expansion.child(tree)


def _ordered_incident(graph: DirectedMultigraph, vertex: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(incoming, outgoing) edge indices at the vertex, each ordered by
    decreasing edge length, ties by ascending index."""
    incoming = []
    outgoing = []
    for k, (a, b) in enumerate(graph.edges):
        if b == vertex:
            incoming.append((a - b, k))
        elif a == vertex:
            outgoing.append((a - b, k))
    return (
        tuple(k for _, k in sorted(incoming)),
        tuple(k for _, k in sorted(outgoing)),
    )


# --- reduction trees ----------------------------------------------------------


class ReductionTreeNode:
    """A tree node, with the vertex and the noncrossing tree of the
    reduction that made it; both are None at the root."""

    __slots__ = ("graph", "parent", "children", "vertex", "tree")

    def __init__(self, graph: ProvenancedGraph, parent=None, vertex=None, tree=None):
        self.graph = graph
        self.parent = parent
        self.children: list[ReductionTreeNode] = []
        self.vertex = vertex
        self.tree = tree

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ReductionTree:
    """Materialized reduction tree; children of each node are in the
    noncrossing-tree enumeration order, so traversal is deterministic."""

    def __init__(self, root: ReductionTreeNode, schedule: tuple[int, ...]):
        self.root = root
        self.schedule = schedule

    def nodes(self) -> Iterator[ReductionTreeNode]:
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    def leaves(self) -> list[ReductionTreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())


class _Budget:
    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.cap:
            raise NodeCapExceeded(
                f"reduction exceeded the node cap of {self.cap}; "
                "raise node_cap to continue"
            )


def _reduction_root(graph: DirectedMultigraph) -> ProvenancedGraph:
    """Root of the canonical reduction tree."""
    if graph.first_vertex != 1:
        raise ValueError("expected a graph on vertices 1..n+1")
    checked_degree_stats(graph)
    return ProvenancedGraph.as_root(graph)


def _expansions(node: ProvenancedGraph, vertex: int):
    """(tree, child) for each noncrossing tree over the full incident edge
    multisets at the vertex, in enumeration order."""
    inc, out = _ordered_incident(node.graph, vertex)
    trees = enumerate_noncrossing_trees(len(inc) + 1, len(out))
    expansion = _Expansion(node, vertex, inc, out)
    for tree in trees:
        yield tree, reduce_at_vertex(node, vertex, inc, out, tree, _expansion=expansion)


def _schedule(graph: DirectedMultigraph) -> tuple[int, ...]:
    """Interior vertices above 1 in decreasing order: n, n-1, ..., 2."""
    return tuple(range(graph.last_vertex - 1, 1, -1))


def _walk(node, schedule: Sequence[int], budget: _Budget, depth: int = 0, tree=None):
    """Depth-first walk from node that reduces the nodes at depth d at
    schedule[d]: yields (depth, tree, node) for node and then for every
    node below it, children in the order _expansions gives them; tree is
    the one that made node.  Each child spends one unit of the budget."""
    yield depth, tree, node
    if depth < len(schedule):
        for child_tree, child in _expansions(node, schedule[depth]):
            budget.spend()
            yield from _walk(child, schedule, budget, depth + 1, child_tree)


def _canonical_walk(graph: DirectedMultigraph, budget: _Budget):
    """The schedule of the canonical reduction tree and its depth-first
    walk; the root spends its unit of the budget here."""
    root = _reduction_root(graph)
    schedule = _schedule(root.graph)
    budget.spend()
    return schedule, _walk(root, schedule, budget)


def canonical_reduction_tree(
    graph: DirectedMultigraph, *, node_cap: int = DEFAULT_NODE_CAP
) -> ReductionTree:
    """Reduction tree using the full incoming and outgoing edge multisets at
    vertices n, n-1, ..., 2, each ordered by decreasing edge length.  All
    leaves have every edge pointing at the sink."""
    schedule, walk = _canonical_walk(graph, _Budget(node_cap))
    path: list[ReductionTreeNode] = []  # from the root to the last node made
    for depth, tree, pg in walk:
        del path[depth:]
        if path:
            node = ReductionTreeNode(pg, path[-1], schedule[depth - 1], tree)
            path[-1].children.append(node)
        else:
            node = ReductionTreeNode(pg)
        path.append(node)
    return ReductionTree(path[0], schedule)


def iter_reduction_leaves(
    graph: DirectedMultigraph,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    _budget: _Budget | None = None,
) -> Iterator[ProvenancedGraph]:
    """Leaves of the canonical reduction tree, streamed depth first in the
    same order the materialized tree would produce, without storing the
    tree.  _budget, when given, replaces node_cap so that a caller's later
    stages draw on the same budget as the walk."""
    budget = _Budget(node_cap) if _budget is None else _budget
    schedule, walk = _canonical_walk(graph, budget)
    for depth, _, node in walk:
        if depth == len(schedule):
            yield node


class _InternedTree(NamedTuple):
    """The canonical reduction tree with each distinct node expanded once:
    the subtree under a node depends only on its depth and its edge tuple,
    so one id stands for every node that shares both.  Ids are numbered
    level by level from the root, 0."""

    c: tuple[int, ...]  # the checked c, or () for the plain tree
    levels: list[range]  # the ids at each depth
    nodes: list[ProvenancedGraph]  # per id, the first node met
    children: list[list[tuple[int, NoncrossingTree]]]  # per id above the last level
    counts: list[int]  # per id, how many tree nodes it stands for


def _interned_tree(
    graph: DirectedMultigraph, c: Sequence[int] | None, node_cap: int
) -> _InternedTree:
    """The interned canonical tree of the graph, which serves the source
    tree at c lifted; c, when given, is checked and kept.  Each child
    built spends one unit of the budget, never more than the tree's node
    count; then that count is held to the cap, so the thresholds are those
    of a walk over every node."""
    root = _reduction_root(graph)
    c = () if c is None else _checked_c(c, graph)
    budget = _Budget(node_cap)
    budget.spend()
    levels, nodes, children, counts = [range(1)], [root], [], [1]
    for vertex in _schedule(graph):
        ids: dict[tuple, int] = {}  # by edge tuple, one level down
        for parent in levels[-1]:
            pairs = []
            for tree, child in _expansions(nodes[parent], vertex):
                budget.spend()
                k = ids.setdefault(child.graph.edges, len(nodes))
                if k == len(nodes):
                    nodes.append(child)
                    counts.append(0)
                counts[k] += counts[parent]
                pairs.append((k, tree))
            children.append(pairs)
        levels.append(range(levels[-1].stop, len(nodes)))
    _Budget(node_cap).spend(sum(counts))
    return _InternedTree(c, levels, nodes, children, counts)


# --- leaf censuses -----------------------------------------------------------


def _leaf_composition(graph: DirectedMultigraph) -> tuple[int, ...]:
    """Composition j for a leaf with j_i + 1 parallel edges from i to the
    sink (ignoring source edges); raises LeafShapeError otherwise."""
    sink = graph.last_vertex
    counts = [0] * sink  # edges to the sink, by tail; tail 0 is the source
    for a, b in graph.edges:
        if b == sink:
            if not a:
                raise LeafShapeError("leaf has a source edge pointing at the sink")
            counts[a] += 1
        elif a:
            raise LeafShapeError(f"leaf edge ({a},{b}) does not point at the sink")
    fans = counts[1:]
    if 0 in fans:
        raise LeafShapeError(f"leaf vertex {fans.index(0) + 1} has no edge to the sink")
    return tuple(k - 1 for k in fans)


def leaf_census(source) -> dict[tuple[int, ...], int]:
    """Multiset of leaf shapes, keyed by the composition j such that the
    leaf has j_i + 1 edges from vertex i to the sink."""
    if isinstance(source, ReductionTree):
        leaves: Iterable = (n.graph for n in source.leaves())
    else:
        leaves = source
    census: dict[tuple[int, ...], int] = {}
    for leaf in leaves:
        graph = leaf.graph if isinstance(leaf, ProvenancedGraph) else leaf
        j = _leaf_composition(graph)
        census[j] = census.get(j, 0) + 1
    return dict(sorted(census.items()))


def tree_census(
    graph: DirectedMultigraph,
    c: Sequence[int] | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> dict[tuple[int, ...], int]:
    """leaf_census of canonical_reduction_tree(graph) under the same node
    cap, from the interned tree: each distinct leaf's composition is read,
    which checks its shape, and counted as often as the leaf occurs.  The
    source tree at c, the plain tree lifted, has the same census; c is only
    checked."""
    tree = _interned_tree(graph, c, node_cap)
    census: dict[tuple[int, ...], int] = {}
    for k in tree.levels[-1]:
        j = _leaf_composition(tree.nodes[k].graph)
        census[j] = census.get(j, 0) + tree.counts[k]
    return dict(sorted(census.items()))


def census_to_json(census: dict[tuple[int, ...], int]) -> list[dict]:
    return [
        {"composition": list(j), "count": count}
        for j, count in sorted(census.items())
    ]


# --- dissection into unimodular simplices --------------------------------------


@dataclass(frozen=True)
class SimplexCell:
    """A lattice simplex in the root graph's edge coordinates.

    vertices: d+1 integer vectors, tuples of ints, stored as given.
    leaf_index / leaf_composition identify the reduction-tree leaf the cell
    came from.
    """

    vertices: tuple[tuple[int, ...], ...]
    leaf_index: int = 0
    leaf_composition: tuple[int, ...] = ()


def zero_vertex_dissection_children(node: ProvenancedGraph, vertex: int) -> list[ProvenancedGraph]:
    """Children over the full incident edge multisets whose noncrossing tree
    has exactly one edge at the appended left vertex.  For a netflow with a
    zero entry at this vertex these are exactly the full-dimensional cells
    of the subdivision."""
    inc, out = _ordered_incident(node.graph, vertex)
    appended = len(inc) + 1
    trees = enumerate_noncrossing_trees(appended, len(out))
    expansion = _Expansion(node, vertex, inc, out)
    return [
        reduce_at_vertex(node, vertex, inc, out, tree, _expansion=expansion)
        for tree in trees
        if tree.edges_at_left(appended) == 1
    ]


@lru_cache(maxsize=4096)
def _staircases(
    c: tuple[int, ...], j: tuple[int, ...]
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Per vertex i of the leaf shape (c, j), its staircases
    enumerate_noncrossing_trees(c_i, j_i + 1) as (source edge, sink edge)
    index pairs into the shape edges: tree edge (p, q) is the path through
    the p-th source and q-th sink edge of i."""
    # the first source and sink edge of each vertex
    firsts = zip(accumulate(c, initial=0), accumulate((ji + 1 for ji in j), initial=sum(c)))
    return tuple(
        tuple(
            tuple((s + p - 1, t + q - 1) for p, q in tree.edges)
            for tree in enumerate_noncrossing_trees(ci, ji + 1)
        )
        for ci, ji, (s, t) in zip(c, j, firsts)
    )


class _PlainTree(NamedTuple):
    """The leaves of a graph's canonical reduction tree, each with its
    composition j, and the nodes its walk made.  The source tree at any c
    is this tree lifted, so one plain tree serves every c."""

    leaves: tuple[tuple[ProvenancedGraph, tuple[int, ...]], ...]
    nodes: int


def _plain_tree(graph: DirectedMultigraph, node_cap: int) -> _PlainTree:
    """The plain tree of the graph, each leaf's composition j read once.  A
    leaf's edges must be its j_i + 1 edges (i, sink) per vertex i in
    canonical order, or LeafShapeError is raised."""
    budget = _Budget(node_cap)
    leaves = []
    for leaf_index, leaf in enumerate(iter_reduction_leaves(graph, _budget=budget)):
        j = _leaf_composition(leaf.graph)  # every edge points at the sink
        if list(leaf.graph.edges) != sorted(leaf.graph.edges):
            raise LeafShapeError(f"leaf {leaf_index} edges are not in canonical order, j={j}")
        leaves.append((leaf, j))
    return _PlainTree(tuple(leaves), budget.used)


def _dissected_leaves(
    graph: DirectedMultigraph, c: Sequence[int], node_cap: int, plain: _PlainTree | None = None
) -> Iterator[tuple[int, ProvenancedGraph, tuple[int, ...], tuple[int, ...]]]:
    """(index, leaf, j, counts) per leaf of the plain canonical tree; plain,
    when given, is that tree, walked once for all c.  The source tree's
    leaf at c is the plain leaf lifted, of leaf shape (c, j).  The
    zero-entry reduction at i keeps counts_i = comb(c_i + j_i - 1, j_i)
    staircases, of which a cell takes one per vertex.  The walk's nodes
    plus, per leaf, the sum(accumulate(counts, mul)) nodes those reductions
    make are held to the cap before the first leaf: the cap stops the same
    inputs as a walk of the source tree would, and before any output."""
    if plain is None:
        plain = _plain_tree(graph, node_cap)
    c = _checked_c(c, graph)
    leaf_counts = [tuple(comb(ci + ji - 1, ji) for ci, ji in zip(c, j)) for _, j in plain.leaves]
    _Budget(node_cap).spend(plain.nodes + sum(sum(accumulate(counts, mul)) for counts in leaf_counts))
    for leaf_index, ((leaf, j), counts) in enumerate(zip(plain.leaves, leaf_counts)):
        yield leaf_index, leaf, j, counts


def _push_forward(
    leaf: ProvenancedGraph, c: tuple[int, ...], j: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The vertices of the cells of the leaf shape (c, j) in the root
    coordinates of the plain leaf lifted to c: the staircases' path flows,
    one staircase per vertex.  A path takes one source edge s, which is
    root edge s, and one sink edge t, which is the plain leaf's edge
    t - sum(c) with its root edges moved up by sum(c)."""
    shift = sum(c)
    sources = leaf.provenance
    size = shift + leaf.root.edge_count
    vectors: dict[tuple[int, int], tuple[int, ...]] = {}

    def vector(pair: tuple[int, int]) -> tuple[int, ...]:
        if pair not in vectors:
            s, t = pair
            vec = [0] * size
            vec[s] = 1
            for d in sources[t - shift]:
                vec[d + shift] += 1
            vectors[pair] = tuple(vec)
        return vectors[pair]

    blocks = [[tuple(map(vector, tree)) for tree in trees] for trees in _staircases(c, j)]
    for parts in product(*blocks):
        yield tuple(chain.from_iterable(parts))


def iter_dissection_cells(
    graph: DirectedMultigraph,
    c: Sequence[int],
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    _plain: _PlainTree | None = None,
) -> Iterator[SimplexCell]:
    """The cells of unimodular_dissection, streamed leaf by leaf without
    storing them."""
    c = tuple(c)
    for leaf_index, leaf, composition, _ in _dissected_leaves(graph, c, node_cap, _plain):
        for vertices in _push_forward(leaf, c, composition):
            yield SimplexCell(vertices=vertices, leaf_index=leaf_index, leaf_composition=composition)


def unimodular_dissection(
    graph: DirectedMultigraph,
    c: Sequence[int],
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    _plain: _PlainTree | None = None,
) -> list[SimplexCell]:
    """Dissect the flow polytope of the source-augmented graph with unit
    source-to-sink netflow into unimodular simplices: reduce to the leaves
    of the source reduction tree, then cut each leaf as the zero-entry
    reductions at the vertices 1..n in increasing order would, into the
    join of per-vertex staircase triangulations; a cell's vertices are path
    indicator flows pushed back into the root's edge coordinates.  The
    source tree's leaves are the plain tree's lifted, and the cells are
    made once per leaf shape (c, j) and reach each leaf through its
    provenance; the tests check them against the reductions.  _plain, when
    given, is the graph's plain tree, shared by the calls for several c."""
    return list(iter_dissection_cells(graph, c, node_cap=node_cap, _plain=_plain))


def dissection_cell_counts(
    graph: DirectedMultigraph, c: Sequence[int], *, node_cap: int = DEFAULT_NODE_CAP
) -> list[tuple[int, tuple[int, ...], int]]:
    """(leaf index, composition, cell count) per source-tree leaf of
    unimodular_dissection, under the same node budget, without building
    the cells: prod_i binom(c_i + j_i - 1, j_i) at composition j."""
    return [
        (leaf_index, composition, prod(counts))
        for leaf_index, _, composition, counts in _dissected_leaves(graph, c, node_cap)
    ]


# --- DOT export ----------------------------------------------------------------


def _edge_label(graph: DirectedMultigraph) -> str:
    parts = []
    for (a, b), group in groupby(graph.edge_multiset()):
        run = len(list(group))
        parts.append(f"{a}→{b}" + (f" ×{run}" if run > 1 else ""))
    return ", ".join(parts)


def dot_lines(
    graph: DirectedMultigraph,
    c: Sequence[int] | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Iterator[str]:
    """The lines of the Graphviz rendering of the canonical reduction tree,
    or at c of the source tree: one box per tree node labeled with its edge
    multiset, reduction metadata (vertex, chosen tree) on each arc.  Nodes
    are numbered breadth first, boxes first, then arcs.

    The lines expand the interned tree (_interned_tree) level by level: the
    nodes of level d + 1 are the children of the nodes of level d in order,
    which is the breadth-first numbering.  A box label is built once per id:
    at c it is the source prefix, `0→i` or `0→i ×c_i` per vertex i, then
    the plain label, since the lift adds those source edges first.  An arc
    label is built once per (depth, tree).  The interned tree, and so the
    node cap, is done before this returns, so an error in it comes before
    any line."""
    tree = _interned_tree(graph, c, node_cap)
    prefix = "".join(f"0→{i}" + (f" ×{ci}" if ci > 1 else "") + ", " for i, ci in enumerate(tree.c, 1))
    labels = [prefix + _edge_label(node.graph) for node in tree.nodes]
    schedule = _schedule(graph)
    arcs = []  # per id above the last level: (child id, arc label) per child
    arc_labels: dict[tuple, str] = {}  # by (vertex, tree)
    for vertex, ids in zip(schedule, tree.levels):
        for k in ids:
            pairs = []
            for child, t in tree.children[k]:
                label = arc_labels.get((vertex, t))
                if label is None:
                    tlabel = ",".join(f"({p},{q})" for p, q in t.edges)
                    label = arc_labels[vertex, t] = f"i={vertex} T={tlabel}"
                pairs.append((child, label))
            arcs.append(pairs)

    def lines():
        yield "digraph reduction_tree {\n"
        yield "  node [shape=box];\n"
        levels = [[0]]  # the id of each node, level by level
        for _ in schedule:
            levels.append([child for k in levels[-1] for child, _ in arcs[k]])
        for number, k in enumerate(chain.from_iterable(levels)):
            yield f'  n{number} [label="{labels[k]}"];\n'
        above = 0  # number of the first node of the parent level
        for level in levels[:-1]:
            number = above + len(level)
            for parent, k in enumerate(level, above):
                for _, label in arcs[k]:
                    yield f'  n{parent} -> n{number} [label="{label}"];\n'
                    number += 1
            above += len(level)
        yield "}\n"

    return lines()
