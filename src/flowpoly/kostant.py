"""Ground-truth lattice-point machinery for flow polytopes: brute-force
flow counting and enumeration, and exact Ehrhart polynomials and
normalized volumes from one table of forward differences of the dilated
counts over a box of netflow heads, a netflow being a one-point box.

The unit source-to-sink polytope of a graph on which every edge lies on a
source-sink path has a cheaper volume (reciprocity_volume): by
Ehrhart-Macdonald reciprocity (Macdonald 1971) the Ehrhart polynomial at
-s is, up to sign, the number of flows at the s-th dilate with every edge
at least 1.  They vanish until s reaches the first vertex's out-degree;
past it they are counted on the rest of the graph, the extra units split
over the first vertex's out-edges (source_split_volumes), so one counter
serves the source-augmented graphs of every c.

Everything here is exact integer / rational arithmetic.  Vertices are
processed in increasing order, so all inflow into a vertex is known when its
outflow is split.  The naive enumeration assigns edge values one edge at a
time.  The counter (FlowCounter) splits a vertex's outflow one edge
group at a time, a group being the parallel edges to one head; its state is
(vertex, group, residual netflow packed into one integer with a slot width
taken from the netflow's size), and it prunes any split that would leave
negative flow across a cut.  It finishes the last two non-sink vertices in
closed form, a binomial and a Newton forward sum, whatever the netflow's
size.  Both must agree, which the tests check.  Outside its box path the
packed state has one reader (FlowCounter._reader), which count, the Lidskii
sum and source_split_volumes build: the state at zero heads, the step per
unit of each head and one recursion call; the Lidskii walk steps the state
itself.  The memo is the one store of counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations_with_replacement
from math import comb, factorial, prod
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .multigraph import DirectedMultigraph, NetflowVector, checked_box, degree_stats, integers


@dataclass(frozen=True)
class FlowInstance:
    graph: DirectedMultigraph
    netflow: NetflowVector

    def __post_init__(self):
        object.__setattr__(self, "netflow", NetflowVector.coerce(self.netflow))
        if len(self.netflow) != self.graph.vertex_count:
            raise ValueError(
                f"netflow has {len(self.netflow)} entries for {self.graph.vertex_count} vertices"
            )

    def dilate(self, t: int) -> "FlowInstance":
        return FlowInstance(self.graph, self.netflow.dilate(t))


class _Reader(NamedTuple):
    """A reader of a counter's packed state: the state at heads h = 0, the
    step that adds one unit to h_k, per non-sink vertex k, and read, the
    count at a state, one recursion call.  A caller that walks many heads
    steps the state; called on heads, it sums the steps itself."""

    start: int
    steps: list[int]
    read: Callable[[int], int]

    def __call__(self, heads: Iterable[int]) -> int:
        return self.read(self.start + sum(map(mul, heads, self.steps)))


class FlowCounter:
    """Reusable exact counter for integer flows on one graph.

    Edge groups: a vertex's out-edges to one head form a group, and the
    groups are taken in head order.  Sending x units into a group of m
    parallel edges can be split over them in comb(x + m - 1, m - 1) ways;
    the last group takes whatever is left.  The recursion state is (vertex,
    group, packed residual).  Slot 0 of the packed residual holds what the
    vertex still has to send; slot k holds the residual netflow of the k-th
    vertex after it, the sink included.  The memo table is keyed on that
    state and persists across calls, so evaluating many netflow vectors on
    the same graph shares work, and a repeated netflow is answered from the
    memo at its root state.

    Closed-form tail: the last non-sink vertex can only send its residual b
    down its m parallel sink edges, so it counts comb(b + m - 1, m - 1) for
    b >= 0 and 0 for b < 0 (with no out-edge: 1 at b = 0, else 0), with no
    state in the memo.  The vertex before it sends x of its b units to the
    last vertex and b - x to the sink, a product of three binomials that is
    a polynomial in x of degree deg = m + m2 + sink_m - 3.  Its sum over
    the N allowed x is sum_k D_k C(N, k + 1), D_k the forward differences
    of its first min(N, deg + 1) values (Newton's forward formula), so a
    state costs O(deg^2), not O(b); with no sink edge only x = -r counts.

    Cut pruning: the flow across the cut in front of a vertex is the sum
    of all residuals before it, so it must never be negative.  Sending x
    units to a head leaves the cuts past that head unchanged.  The cuts
    between that head and the next one are still crossed by the b - x units
    the vertex has left to send, so x >= b - (the smallest of their prefix
    sums).  The cuts in front of a vertex's first head are checked when the
    recursion enters the vertex, and every cut once at the root.  A pruned
    branch always has a cut carrying negative flow, so the prune is exact on
    any forward graph.

    Memo reads in the split loops: the loops over the units x sent to a
    head (the tail's two, and the one down a vertex's chain of groups) look
    the next state up in its memo table and call the recursion only on a
    miss, so a state met again costs a dictionary read, not a call.

    Slot width: a residual never exceeds the largest prefix sum of the
    netflow and never falls below its smallest entry, so each call takes
    the slot width from that bound.  Each slot stores its value plus half
    its range.  Widths only grow: a call that needs wider slots than the
    counter has drops the memo table.  Widths come in whole bytes, so a
    counter reused over growing netflows rarely drops it.
    count_box packs a whole box of netflows (h, -sum(h)) at one width, the
    box's largest sum(h): each state is the packed zero residual plus
    sum_k h_k times the step that moves a unit from the sink's slot to
    slot k.
    """

    def __init__(self, graph: DirectedMultigraph):
        self.graph = graph
        lo = graph.first_vertex
        heads: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count - 1)]
        for (a, b), m in sorted(Counter(graph.edges).items()):
            heads[a - lo].append((b - a, m))
        # per non-sink vertex, its groups in head order, each as (d, m, d2,
        # m2, tail): head - vertex and multiplicity, the same for the next
        # group (0, 0 after the last group), and whether the next is the last
        self._groups = []
        for gs in heads:
            gs.append((0, 0))
            self._groups.append(tuple(
                gs[g] + gs[g + 1] + (g + 3 == len(gs),) for g in range(len(gs) - 1)
            ))
        self._room = -1  # the largest residual the slots hold; none yet

    def count(self, netflow) -> int:
        # ints before the packing: an entry of 1.0 would pack into a float state
        key = netflow.entries if isinstance(netflow, NetflowVector) else integers(netflow, "netflow")
        prefix = list(accumulate(key))
        if not prefix or prefix[-1]:
            NetflowVector(key)  # raises: a netflow is nonempty and sums to zero
        if len(key) != self.graph.vertex_count:
            raise ValueError("netflow length does not match the graph")
        if min(prefix) < 0:
            # a cut would carry negative flow
            return 0
        # residuals lie within the smallest entry..the largest prefix sum p, and no entry is below -p
        return self._reader(max(prefix))(key)

    def count_box(self, box) -> list[int]:
        """The counts at (h, -sum(h)) for every h in product(*box), in that
        order; box holds a range of nonnegative integers per non-sink vertex."""
        return self._count_dilates(checked_box(box, self.graph, 0, "netflow"), (1,))[0]

    def _count_dilates(self, box: list[Sequence[int]], dilations) -> list[list[int]]:
        """count_box of a box of integer heads, negative ones allowed, with
        every range times t, for each t in dilations: the state at t*h packs
        as base + t * sum_k h_k * step_k.  A point with a negative prefix
        sum needs no root check: the recursion finds no flow there."""
        if not all(box):
            return [[] for _ in dilations]
        # a non-sink residual lies within t*min(h)..t*(sum of the positive
        # heads); the sink's slot is the top one and is never read
        recursion, base, steps = self._packing(max(dilations) * max(
            sum(max(max(r), 0) for r in box), -min(map(min, box), default=0)))
        sums = [0]
        for r, step in zip(box, steps):  # sum_k h_k * step_k, in product order
            sums = [s + h * step for s in sums for h in r]
        return [[recursion(0, 0, base + t * s) for s in sums] for t in dilations]

    def _reader(self, bound: int, origin: Sequence[int] = ()) -> _Reader:
        """The counts at (o + h, -sum(o + h)) for heads h and o = origin,
        each cut or padded with zeros to the non-sink vertices; unchecked,
        valid while every residual lies within -bound..bound.  One per
        caller: a wider packing drops its memo."""
        recursion, base, steps = self._packing(bound)
        base += sum(map(mul, origin, steps)) if origin else 0
        return _Reader(base, steps, partial(recursion, 0, 0))

    def _packing(self, bound: int):
        """The recursion for residuals within -bound..bound, the packed state
        with every residual 0 and, per non-sink vertex k, the step that
        moves one unit from the sink's slot to slot k: the state at netflow
        (h, -sum(h)) is that state plus sum_k h_k * step_k.  A bound past
        the slots widens them, in whole bytes, with a fresh memo table."""
        if bound > self._room:
            width = 8 * (bound.bit_length() // 8 + 1)
            self._room = (1 << (width - 1)) - 1
            n = self.graph.vertex_count - 1
            sink = 1 << width * n
            # 1 << (width - 1) in every slot 0..n
            base = ((sink << width) - 1) // ((1 << width) - 1) << (width - 1)
            self._packed = self._build(width), base, [(1 << width * k) - sink for k in range(n)]
        return self._packed

    def _build(self, width: int):
        """The recursion for slots of the given width, with a fresh memo
        table.  It stops at the last non-sink vertex, whose count is one
        binomial of its residual b: the sink's residual is -b because the
        residuals sum to zero, so the sink needs no state.  The vertex
        before it sums its splits in closed form (tail_sum), not recursing."""
        off = 1 << (width - 1)
        mask = (1 << width) - 1
        groups_at = self._groups
        nv = self.graph.vertex_count
        acc = list(accumulate(off << (width * k) for k in range(nv)))
        # packed all-zero residual from each vertex on: only the zero flow is left
        zero = acc[::-1]
        # top bits of slots 1..d-1, all set when none of those residuals is negative
        top_at = [0] + [a - off for a in acc[:-1]]
        # the last non-sink vertex (on a one-vertex graph the sink, which
        # holds 0) and its parallel sink edges
        last = max(nv - 2, 0)
        sink_m = groups_at[last][0][1] if last < len(groups_at) and groups_at[last] else 0
        # one table per group, and one for a vertex without groups, of the
        # vertices before the last
        memo_at = [[{} for _ in gs or (0,)] for gs in groups_at[:last]]

        def finish(b: int) -> int:
            """Flows from the last non-sink vertex when it holds b; with no
            out-edge it must hold nothing."""
            return (comb(b + sink_m - 1, sink_m - 1) if sink_m else int(not b)) if b >= 0 else 0

        def tail_sum(m: int, m2: int, b: int, low: int, r: int) -> int:
            """Flows when the second-to-last vertex sends x = low..b units
            over m edges to the last vertex, which then holds r + x >= 0, and
            b - x over m2 edges to the sink; with no sink edge only x = -r.
            Kept out of count: a comprehension there makes its locals cells."""
            if not sink_m:
                return comb(m - r - 1, m - 1) * comb(b + r + m2 - 1, m2 - 1) if low <= -r <= b else 0
            span = b - low + 1
            diffs = _differences([comb(x + m - 1, m - 1) * comb(b - x + m2 - 1, m2 - 1) * finish(r + x)
                                  for x in range(low, low + min(span, m + m2 + sink_m - 2))])
            return sum(dk * comb(span, k) for k, dk in enumerate(diffs, 1))

        def cuts_hold(packed: int, d: int) -> bool:
            """Whether slots 1..d-1 have nonnegative prefix sums."""
            acc = 0
            for _ in range(d - 1):
                packed >>= width
                acc += (packed & mask) - off
                if acc < 0:
                    return False
            return True

        def count(pos: int, g: int, packed: int) -> int:
            """Flows that send the units left at the vertex at pos (slot 0)
            into its groups g, g + 1, ..., and finish every later vertex."""
            if pos == last:
                return finish((packed & mask) - off)
            memo = memo_at[pos][g]
            total = memo.get(packed)
            if total is not None:
                return total
            if packed == zero[pos]:
                memo[packed] = 1
                return 1
            b = (packed & mask) - off
            groups = groups_at[pos]
            if b <= 0 or not groups:
                # nothing left to send, or nowhere to send it
                total = count(pos + 1, 0, packed >> width) if b == 0 else 0
                memo[packed] = total
                return total
            d, m, d2, m2, tail = groups[g]
            if not g:
                top = top_at[d]
                if packed & top != top and not cuts_hold(packed, d):
                    # a cut in front of the first head is crossed by all of b
                    memo[packed] = 0
                    return 0
            if not d2:
                # a single group takes everything
                total = count(pos + 1, 0, (packed + (b << width * d)) >> width)
                if m > 1:
                    total *= comb(b + m - 1, m - 1)
                memo[packed] = total
                return total
            # the cuts between this head and the next are crossed by the b - x
            # units still to be sent: x >= -(sum of slots 1..c-1) at each cut c
            low = 0
            top = top_at[d2]
            if packed & top != top:
                rest = packed
                acc = 0
                for j in range(1, d2):
                    rest >>= width
                    acc += (rest & mask) - off
                    if j >= d and -acc > low:
                        low = -acc
            total = 0
            if tail and pos + 1 == last:
                total = tail_sum(m, m2, b, low, ((packed >> width) & mask) - off)
            elif tail:
                # the next group is the last one and takes the rest; a state
                # already in the next vertex's memo is read there, not counted
                sh, sh2 = width * d, width * d2
                nxt = packed - b + (low << sh) + ((b - low) << sh2)
                step = (1 << sh) - (1 << sh2)
                hits = memo_at[pos + 1][0]
                if m == m2 == 1:
                    for _ in range(low, b + 1):
                        sub = hits.get(child := nxt >> width)
                        total += count(pos + 1, 0, child) if sub is None else sub
                        nxt += step
                else:
                    for x in range(low, b + 1):
                        sub = hits.get(child := nxt >> width)
                        if sub is None:
                            sub = count(pos + 1, 0, child)
                        if sub:
                            total += sub * comb(x + m - 1, m - 1) * comb(b - x + m2 - 1, m2 - 1)
                        nxt += step
            else:
                step = (1 << width * d) - 1
                child = packed + low * step
                hits = memo_at[pos][g + 1]
                for x in range(low, b + 1):
                    sub = hits.get(child)
                    if sub is None:
                        sub = count(pos, g + 1, child)
                    if sub:
                        total += sub * comb(x + m - 1, m - 1) if m > 1 else sub
                    child += step
            memo[packed] = total
            return total

        return count


def count_flows(inst: FlowInstance) -> int:
    """Number of integer flows: nonnegative integer edge values whose net
    outflow at each vertex matches the netflow entry.  Returns 0 for
    infeasible instances; works for netflows outside the nice chamber."""
    return FlowCounter(inst.graph).count(inst.netflow)


def iter_flows(inst: FlowInstance) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of all integer flows, edge values assigned in
    canonical per-vertex order, each yielded as a vector indexed by edge."""
    graph = inst.graph
    lo = graph.first_vertex
    nv = graph.vertex_count
    entries = inst.netflow.entries
    out_edges = [graph.out_edges_at(v) for v in graph.vertices]
    flow = [0] * graph.edge_count
    inflow = [0] * nv

    def at_vertex(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == nv - 1:
            if entries[pos] + inflow[pos] == 0:
                yield tuple(flow)
            return
        b = entries[pos] + inflow[pos]
        if b < 0:
            return
        idxs = out_edges[pos]
        if not idxs:
            if b == 0:
                yield from at_vertex(pos + 1)
            return
        yield from assign(pos, idxs, 0, b)

    def assign(pos: int, idxs, k: int, remaining: int) -> Iterator[tuple[int, ...]]:
        e = idxs[k]
        head = graph.edges[e][1] - lo
        if k == len(idxs) - 1:
            flow[e] = remaining
            inflow[head] += remaining
            yield from at_vertex(pos + 1)
            inflow[head] -= remaining
            flow[e] = 0
            return
        for val in range(remaining + 1):
            flow[e] = val
            inflow[head] += val
            yield from assign(pos, idxs, k + 1, remaining - val)
            inflow[head] -= val
        flow[e] = 0

    yield from at_vertex(0)


def enumerate_flows(inst: FlowInstance) -> list[tuple[int, ...]]:
    return list(iter_flows(inst))


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact polynomial with rational coefficients, low degree first.
    The empty tuple is the zero polynomial (empty polytope)."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, t) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def value_at(self, t: int) -> int:
        val = self(t)
        if val.denominator != 1:
            raise ValueError(f"polynomial is not integer-valued at {t}: {val}")
        return val.numerator

    def coefficient_strings(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def _difference_table(counter: FlowCounter, box: list[Sequence[int]]) -> list[list[int]]:
    """Per h in product(*box) of integer heads, in that order, the forward
    differences at 0 of the counts L(t) at (t*h, -t*sum(h)), of order k =
    0..|E| - |V| + 1, so that L(t) = sum_k diffs[k] * C(t, k); empty for an
    empty polytope.  A netflow is the one-point box of its non-sink entries."""
    graph = counter.graph
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    bound = graph.edge_count - graph.vertex_count + 1
    # L(1) is counted even for a tree: 0 there means an empty polytope
    dilates = counter._count_dilates(box, range(max(bound, 1) + 1))
    return [_differences(row[:bound + 1]) if row[1] else [] for row in zip(*dilates)]


def _differences(row: list[int]) -> list[int]:
    """Forward differences of row at its first entry, of order 0 up."""
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def ehrhart_polynomial(inst: FlowInstance) -> EhrhartPolynomial:
    """Unique polynomial of degree at most |E| - |V| + 1 matching the flow
    counts of the dilated netflow at t = 0, 1, ..., that bound, expanded
    from the binomial basis C(t, k) of their difference table.  Infeasible
    instances give the zero polynomial."""
    (diffs,) = _difference_table(FlowCounter(inst.graph), [(h,) for h in inst.netflow.entries[:-1]])
    coeffs = [Fraction(0)] * len(diffs)
    falling = [1]  # t (t - 1) ... (t - k + 1), low degree first
    for k, d in enumerate(diffs):
        for m, f in enumerate(falling):
            coeffs[m] += Fraction(d * f, factorial(k))
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return EhrhartPolynomial(tuple(coeffs))


def normalized_volume_oracle(inst: FlowInstance) -> int:
    """The highest nonzero forward difference of the dilated flow counts,
    which is d! times the Ehrhart leading coefficient, d the actual degree:
    the volume normalized so a smallest lattice simplex has volume 1.  A
    point gives 1, an empty polytope 0."""
    (diffs,) = _difference_table(FlowCounter(inst.graph), [(h,) for h in inst.netflow.entries[:-1]])
    return _top_difference(diffs)


def normalized_volume_box(counter: FlowCounter, box) -> list[int]:
    """normalized_volume_oracle at (h, -sum(h)) for every h in product(*box),
    in that order, on the counter's graph: the top of each row of the one
    difference table."""
    box = checked_box(box, counter.graph, 0, "netflow")
    return [_top_difference(diffs) for diffs in _difference_table(counter, box)]


def _top_difference(diffs: list[int]) -> int:
    """The highest nonzero forward difference, 0 if none; a negative one is
    no volume and is refused."""
    vol = next((d for d in reversed(diffs) if d), 0)
    if vol < 0:
        raise ArithmeticError(f"normalized volume came out as {vol}, expected a nonnegative integer")
    return vol


def reciprocity_volume(graph: DirectedMultigraph) -> int:
    """Normalized volume of the unit source-to-sink flow polytope P of a
    graph (netflow +1 at the first vertex, -1 at the last) on which every
    edge lies on a first-to-last path, from Ehrhart-Macdonald reciprocity:
    L(-t) = (-1)^D L°(t), where D = |E| - |V| + 1 is the dimension of P and
    L° counts the lattice points in the relative interior of tP: the flows
    with every edge at least 1, which source_split_volumes counts on the
    graph with its first vertex taken as the source.  The values at t =
    -D..0, with L(0) = 1, fix L, and their D-th difference is D! times its
    leading coefficient.

    Raises ValueError unless every vertex but the first has an in-edge and
    every vertex but the last an out-edge, and ArithmeticError unless the
    backward differences at 0 sum to L(1), the count at the unit netflow."""
    stats = degree_stats(graph)
    nv = graph.vertex_count
    for k, v in enumerate(graph.vertices):
        if k and not stats.indeg[k]:
            raise ValueError(f"vertex {v} has no incoming edge, so not every edge lies on a "
                             "source-sink path")
        if k < nv - 1 and not stats.outdeg[k]:
            raise ValueError(f"vertex {v} has no outgoing edge, so not every edge lies on a "
                             "source-sink path")
    if nv == 1:
        return 1  # a point
    lo = graph.first_vertex
    sources = [graph.edges.count((lo, v)) for v in graph.vertices[1:]]
    rest = DirectedMultigraph(nv - 1, tuple((a - lo, b - lo) for a, b in graph.edges if a != lo))
    return next(source_split_volumes(FlowCounter(rest), [sources]))


def source_split_volumes(counter: FlowCounter, sources: Iterable[Sequence[int]]) -> Iterator[int]:
    """reciprocity_volume of the counter's graph G with a source in front
    that has m_i parallel edges to the i-th vertex of G (the sink included),
    for each m in sources, in that order; every m reads G's one counter.

    An interior flow at the s-th dilate, less 1 on every edge, has the
    source send r = s - sum(m) units, y_i of them to vertex i in
    prod_i C(y_i + m_i - 1, y_i) ways, and G carry the rest.  With K the
    count on G: L°(sum(m) + r) = sum over |y| = r of that product times
    K(m + indeg - outdeg + y), for r up to D - sum(m) = |E(G)| - |V(G)|;
    below sum(m) a source edge would carry 0.  L(1) = sum_i m_i K(e_i - e_sink)."""
    graph = counter.graph
    n = graph.vertex_count
    stats = degree_stats(graph)
    shift = [i - o for i, o in zip(stats.indeg, stats.outdeg[:-1])]
    extra = graph.edge_count - n
    # every y with sum(y) <= extra: extra units over the n vertices and a slack
    splits = [tuple(map(multiset.count, range(n)))
              for multiset in (combinations_with_replacement(range(n + 1), extra) if extra >= 0 else ())]
    unit = counter._reader(1)
    units = [unit(int(i == k) for i in range(n - 1)) for k in range(n - 1)] + [1]
    for m in sources:
        # y units go over m_i parallel edges in C(y + m_i - 1, y) ways, over none only if y = 0
        ways = [[comb(y + mi - 1, y) if mi else int(not y) for y in range(extra + 1)] for mi in m]
        base = list(map(add, m, shift))  # no sink entry: units sent to the sink change none
        # K at heads base + y: residuals lie within sum|base| + sum(y)
        count = counter._reader(sum(map(abs, base)) + extra, base)
        interior = [0] * (extra + 1)
        for y in splits:
            w = prod(map(list.__getitem__, ways, y))
            # K is 0 where a prefix sum of the heads base + y is negative, as
            # in count: read only the others, which leaves no memo state behind
            if w and min(accumulate(map(add, base, y)), default=0) >= 0:
                interior[sum(y)] += w * count(y)
        # L(0) = 1, L(-k) = 0 for 0 < k < sum(m), and L(-k) = (-1)^D L°(k)
        # above.  The backward difference of L at 0 of order j is
        # sum_k (-1)^k C(j, k) L(-k): the D-th is the volume, and those of
        # order 0..D add up to L(1) by Newton's backward formula; summed over
        # j, C(j, k) gives C(D + 1, k + 1).  signed[r] is (-1)^k L(-k) at
        # k = sum(m) + r.
        low, dim = sum(m), extra + sum(m)
        signed = [(-1) ** (extra - r) * k for r, k in enumerate(interior)]
        volume = 1 + sum(k * comb(dim, low + r) for r, k in enumerate(signed))
        at_one = dim + 1 + sum(k * comb(dim + 1, low + r + 1) for r, k in enumerate(signed))
        paths = sum(map(mul, m, units))
        if at_one != paths:
            raise ArithmeticError(
                f"reciprocity gives L(1) = {at_one}, but the unit netflow has {paths} flows"
            )
        yield volume

