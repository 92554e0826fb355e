"""Closed-form volume and lattice-point evaluators for flow polytopes in
the nice chamber, as one sum over dominance-constrained weak compositions
with three weights.

The composition set depends only on the graph: the weak compositions j of
|E| - n (n the number of non-sink vertices) whose prefix sums dominate the
shifted outdegree vector.  Each term is a weight times the flow count K_j
at the shifted netflow (j - out, 0), which also depends only on the graph.
LidskiiTerms checks the graph once; each evaluation walks the compositions
depth first and reads each K_j from one reader of the counter, whose memo
keeps them.  Every weight vanishes from some part on, so an evaluation
walks only the compositions under those caps (one at the unit netflow).
The formulas differ only in the weight:

  volume        multinomial(|E|-n; j) * prod a_i^{j_i}
  count         prod multiset_coeff(a_i - in(i), j_i)
  count_c_form  prod multiset_coeff(c_i, j_i)

The sum is taken over a box at once: one range of netflow heads or c
values per non-sink vertex, whose product lists the points (volumes,
counts, c_form_counts).  Each vertex gets a row of weights over its range
per part, built once.  Each level of the walk fixes one part and carries
down the outer product of the rows so far, the volume's multinomial factor
and the counter's state, so a composition shares what its prefix built,
and K_j is read once per box rather than once per point.
volume, count and count_c_form are the same sum over a one-point box,
whose rows hold numbers, multiplied per part.
lidskii_volume, lidskii_count and lidskii_count_c_form evaluate one
netflow or c vector on a fresh LidskiiTerms; a caller with many on one
graph keeps one.  The shifted counts come from the brute-force counter,
and multiset_coeff is one binomial, signed for n <= 0.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb, prod
from operator import add, mul, sub
from typing import Callable, Sequence

from .kostant import FlowCounter
from .multigraph import (
    DirectedMultigraph,
    NetflowVector,
    _checked_c,
    checked_box,
    checked_degree_stats,
    degree_stats,
    integers,
)


def multiset_coeff(n: int, k: int) -> int:
    """binom(n+k-1, k) in the generalized sense n(n+1)...(n+k-1) / k!.

    It is also the c-form weight c(c+1)...(c+j-1) / j! at n = c, k = j.
    For n >= 1 this counts multisets of size k from n types.  For n <= 0 it
    is zero when the rising product crosses zero and signed otherwise
    (e.g. n=-1, k=1 gives -1); those signed values are exactly what keeps
    the lattice-point formula an identity at netflows with small entries."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n >= 1:
        return comb(n + k - 1, k)
    # the product is (-1)^k (-n)(-n - 1)...(-n - k + 1): 0 once it crosses
    # zero, at k > -n, as comb(-n, k) is
    return (-1) ** k * comb(-n, k)


def dominant_compositions(total: int, lower: Sequence[int],
                          upper: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """All weak compositions of `total` into len(lower) parts that dominate
    `lower`, in ascending lexicographic order; with `upper`, only those whose
    i-th part is at most upper[i]."""
    (total,) = integers((total,), "total")
    lower = integers(lower, "lower")
    if total < 0:
        raise ValueError("total must be nonnegative")
    if sum(lower) != total:
        raise ValueError(f"lower bounds sum to {sum(lower)}, expected {total}")
    n = len(lower)
    upper = (total,) * n if upper is None else integers(upper, "upper")
    if len(upper) != n or min(upper, default=0) < 0:
        raise ValueError(f"upper must hold {n} nonnegative caps, got {upper}")
    prefix_lower = list(accumulate(lower))
    # room[k]: the most that parts k+1, k+2, ... can take together
    room = list(accumulate(reversed(upper), initial=0))[-2::-1]
    out: list[tuple[int, ...]] = []
    parts = [0] * n

    def rec(k: int, assigned: int):
        left = total - assigned
        if k == n - 1:
            if left <= upper[k]:
                parts[k] = left
                out.append(tuple(parts))
            return
        low = max(0, prefix_lower[k] - assigned, left - room[k])
        for v in range(low, min(upper[k], left) + 1):
            parts[k] = v
            rec(k + 1, assigned + v)

    if n == 0:
        return [()] if total == 0 else []
    rec(0, 0)
    return out


def _outer(p: list[int], w: Sequence[int]) -> list[int]:
    """The outer product of p and w, flattened with w's index fastest."""
    return [a * b for a in p for b in w]


def multinomial(total: int, parts: Sequence[int]) -> int:
    result = 1
    remaining = total
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


class LidskiiTerms:
    """The part of the three formulas that depends only on the graph: its
    dominant compositions and its counter, whose memo keeps the flow count
    at each shifted netflow (j - out, 0) once a nonzero weight has needed
    it.  Build one per graph and evaluate any number of netflows, c vectors
    or boxes of them on it, with its own counter or one passed in on the
    same graph."""

    def __init__(self, graph: DirectedMultigraph, counter: FlowCounter | None = None):
        stats = checked_degree_stats(graph)
        if counter is not None and counter.graph != graph:
            raise ValueError("the counter counts flows on another graph")
        self.graph = graph
        self.counter = FlowCounter(graph) if counter is None else counter
        self.in_shift = stats.in_shift
        self.out_shift = stats.out_shift
        self.excess = graph.edge_count - (graph.vertex_count - 1)

    @property
    def compositions(self) -> list[tuple[int, ...]]:
        """Every dominant composition of the excess |E| - n."""
        return dominant_compositions(self.excess, self.out_shift)

    def shifted_count(self, j: tuple[int, ...]) -> int:
        """Flow count at netflow (j - out, 0), through the counter's checks."""
        return self.counter.count((*map(sub, j, self.out_shift), 0))

    def _sum(self, box: Sequence[Sequence[int]], weight: Callable[[int, int], int],
             scaled: bool = False) -> list[int]:
        """sum_j K_j * prod_i weight(v_i, j_i) at every point v of
        product(*box), in that order, each term times multinomial(|E| - n;
        j) if scaled, K_j being the shifted count.  Each vertex gets a row of
        weights over its range per part, up to the last part at which some
        weight is nonzero: both weights vanish from some part on, so that
        part caps the vertex's part.  One depth-first walk takes the
        compositions under the caps in the order dominant_compositions lists
        them.  Each level carries down the product of the rows so far (an
        outer product over the box, a number at one point), the
        multinomial's comb(left, v) per part and the counter's state; the
        last part is what is left, so the level before it loops over both.
        A composition with K_j != 0 adds K_j times that product."""
        points = prod(map(len, box))
        if not points:
            return []
        excess, out = self.excess, self.out_shift
        # a vertex's part is at most the excess less what those before it take
        tops = list(accumulate(out, sub, initial=excess))
        rows = []
        for r, top in zip(box, tops):
            rows.append(row := [])
            for k in range(top + 1):
                if not any(w := tuple(map(weight, r, repeat(k)))):
                    break
                # one point: numbers, multiplied per part, not outer products
                row.append(w if points > 1 else w[0])
        caps = [len(row) - 1 for row in rows]
        # K_j needs no check for a dominant j: (j - out, 0) has residuals in -max(out)..excess
        start, steps, read = self.counter._reader(max(excess, *out, 0), [-o for o in out])
        last = len(rows) - 1
        if last < 1:
            # one composition at most: (excess,) under its cap, or () on one vertex
            if rows and caps[0] < excess:
                return [0] * points
            k = read(start + excess * sum(steps))
            return [k * w for w in rows[0][excess]] if points > 1 else [k * prod(r[excess] for r in rows)]
        # the prefix sums a dominant j reaches, and the most the parts after k can take
        lower = list(accumulate(out))
        room = list(accumulate(reversed(caps), initial=0))[-2::-1]
        outer = mul if points == 1 else _outer
        totals = [0] * points

        def walk(k: int, left: int, state: int, p, scale: int):
            """Adds the compositions whose parts before k sum to excess -
            left: p is the product of their rows, scale their multinomial
            factors and state their counter state, all so far."""
            row, step = rows[k], steps[k]
            low = max(0, lower[k] - excess + left, left - room[k])
            state += low * step
            if k + 1 < last:
                for v in range(low, min(caps[k], left) + 1):
                    walk(k + 1, left - v, state, outer(p, row[v]),
                         scale * comb(left, v) if scaled else scale)
                    state += step
                return
            # the last part takes the rest, left - v
            end, end_step = rows[last], steps[last]
            state += (left - low) * end_step
            step -= end_step
            for v in range(low, min(caps[k], left) + 1):
                if kj := read(state):
                    kj *= scale * comb(left, v) if scaled else scale
                    term = outer(outer(p, row[v]), end[left - v])
                    if points == 1:
                        totals[0] += kj * term
                    else:
                        totals[:] = map(add, totals, map(kj.__mul__, term))
                state += step

        walk(0, excess, start, 1 if points == 1 else [1], 1)
        return totals

    def _nice_point(self, netflow) -> list[tuple[int]]:
        """The one-point box of a nice-chamber netflow's non-sink entries."""
        a = NetflowVector.coerce(netflow)
        if len(a) != self.graph.vertex_count:
            raise ValueError("netflow length does not match the graph")
        if not a.nice_chamber:
            bad = next(i for i, e in enumerate(a.entries[:-1]) if e < 0)
            raise ValueError(f"netflow entry {bad} is negative; nice chamber required")
        return [(e,) for e in a.entries[:-1]]

    def volume(self, netflow) -> int:
        """Normalized volume of the flow polytope at a nice-chamber netflow."""
        return self.volumes(self._nice_point(netflow))[0]

    def count(self, netflow) -> int:
        """Number of integer flows at a nice-chamber netflow."""
        return self.counts(self._nice_point(netflow))[0]

    def count_c_form(self, c: Sequence[int]) -> int:
        """Flow count at netflow a_i = indeg(i) - 1 + c_i, written in terms
        of the positive vector c via rising factorials."""
        return self.c_form_counts([(ci,) for ci in _checked_c(c, self.graph)])[0]

    def volumes(self, box: Sequence[Sequence[int]]) -> list[int]:
        """volume at (h, -sum(h)) for every h in product(*box), in that
        order; box holds a range of nonnegative integers per non-sink vertex."""
        return self._sum(checked_box(box, self.graph, 0, "netflow"), pow, scaled=True)

    def counts(self, box: Sequence[Sequence[int]]) -> list[int]:
        """count at (h, -sum(h)) for every h in product(*box), in that
        order; box holds a range of nonnegative integers per non-sink vertex."""
        box = checked_box(box, self.graph, 0, "netflow")
        # the count at a is the c-form count at c = a - in
        return self._sum([[v - s for v in r] for r, s in zip(box, self.in_shift)], multiset_coeff)

    def c_form_counts(self, box: Sequence[Sequence[int]]) -> list[int]:
        """count_c_form at every c in product(*box), in that order; box
        holds a range of positive integers per non-sink vertex."""
        return self._sum(checked_box(box, self.graph, 1, "c"), multiset_coeff)


def lidskii_volume(graph: DirectedMultigraph, netflow) -> int:
    """Normalized volume of the flow polytope, by the closed formula."""
    return LidskiiTerms(graph).volume(netflow)


def lidskii_count(graph: DirectedMultigraph, netflow) -> int:
    """Number of integer flows, by the closed formula."""
    return LidskiiTerms(graph).count(netflow)


def lidskii_count_c_form(graph: DirectedMultigraph, c: Sequence[int]) -> int:
    """Flow count at netflow a_i = indeg(i) - 1 + c_i, written directly in
    terms of the positive vector c via rising factorials."""
    return LidskiiTerms(graph).count_c_form(c)


def in_plus_c_netflow(graph: DirectedMultigraph, c: Sequence[int]) -> NetflowVector:
    """Netflow with entries indeg(i) - 1 + c_i at non-sink vertices and the
    balancing sink value."""
    c = _checked_c(c, graph)
    first = tuple(ii + ci for ii, ci in zip(degree_stats(graph).in_shift, c))
    return NetflowVector.completing(first)
