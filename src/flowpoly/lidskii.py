"""Closed-form volume and lattice-point evaluators for flow polytopes in
the nice chamber, as one sum over dominance-constrained weak compositions
with three weights.

The composition set depends only on the graph: the weak compositions j of
|E| - n (n the number of non-sink vertices) whose prefix sums dominate the
shifted outdegree vector.  Each term is a weight times the flow count at
the shifted netflow (j - out, 0), which also depends only on the graph.
LidskiiTerms holds both for one graph: it checks the graph once, lists
the compositions once, and counts each shifted netflow the first time a
nonzero weight needs it, so a zero-weight term is never counted.  The
three formulas differ only in the weight:

  volume        multinomial(|E|-n; j) * prod a_i^{j_i}
  count         prod multiset_coeff(a_i - in(i), j_i)
  count_c_form  prod multiset_coeff(c_i, j_i)

The sum is taken over a box at once: one range of netflow heads or c
values per non-sink vertex, whose product lists the points (volumes,
counts, c_form_counts).  Each vertex gets a row of weights over its range
per part, built once, and a composition adds K_j times the outer product
of its rows, so K_j is looked up once per box rather than once per point.
volume, count and count_c_form are the same sum over a one-point box,
whose weights are taken per composition without rows.
lidskii_volume, lidskii_count and lidskii_count_c_form evaluate one
netflow or c vector on a fresh LidskiiTerms; a caller with many on one
graph keeps one.  The shifted counts come from the brute-force counter.
"""

from __future__ import annotations

from functools import partial
from itertools import product, repeat
from math import comb, factorial, prod
from operator import add, getitem, sub
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
    if k == 0:
        return 1
    if n >= 1:
        return comb(n + k - 1, k)
    if n <= 0 <= n + k - 1:
        return 0
    prod = 1
    for t in range(k):
        prod *= n + t
    return prod // factorial(k)


def dominant_compositions(total: int, lower: Sequence[int]) -> list[tuple[int, ...]]:
    """All weak compositions of `total` into len(lower) parts that dominate
    `lower`, in ascending lexicographic order."""
    (total,) = integers((total,), "total")
    lower = integers(lower, "lower")
    if total < 0:
        raise ValueError("total must be nonnegative")
    if sum(lower) != total:
        raise ValueError(f"lower bounds sum to {sum(lower)}, expected {total}")
    n = len(lower)
    prefix_lower = []
    acc = 0
    for b in lower:
        acc += b
        prefix_lower.append(acc)
    out: list[tuple[int, ...]] = []
    parts = [0] * n

    def rec(k: int, assigned: int):
        if k == n - 1:
            last = total - assigned
            if last >= 0:
                parts[k] = last
                out.append(tuple(parts))
            return
        low = max(0, prefix_lower[k] - assigned)
        for v in range(low, total - assigned + 1):
            parts[k] = v
            rec(k + 1, assigned + v)

    if n == 0:
        return [()] if total == 0 else []
    rec(0, 0)
    return out


def multinomial(total: int, parts: Sequence[int]) -> int:
    result = 1
    remaining = total
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


class LidskiiTerms:
    """The part of the three formulas that depends only on the graph: its
    dominant compositions and the flow count at each shifted netflow
    (j - out, 0), counted the first time a nonzero weight needs it and kept
    for the object's life.  Build one per graph and evaluate any number of
    netflows, c vectors or boxes of them on it."""

    def __init__(self, graph: DirectedMultigraph, counter: FlowCounter | None = None):
        stats = checked_degree_stats(graph)
        self.graph = graph
        self.counter = FlowCounter(graph) if counter is None else counter
        self.in_shift = stats.in_shift
        self.out_shift = stats.out_shift
        self.excess = graph.edge_count - (graph.vertex_count - 1)
        self.compositions = dominant_compositions(self.excess, self.out_shift)
        self._shifted: dict[tuple[int, ...], int] = {}

    def shifted_count(self, j: tuple[int, ...]) -> int:
        """Flow count at netflow (j - out, 0)."""
        k = self._shifted.get(j)
        if k is None:
            netflow = (*map(sub, j, self.out_shift), 0)
            k = self._shifted[j] = self.counter.count(netflow)
        return k

    def _sum(self, box: Sequence[Sequence[int]], weight: Callable[[int, int], int],
             scale: Callable[[tuple[int, ...]], int] | None = None) -> list[int]:
        """sum_j scale(j) * K_j * prod_i weight(v_i, j_i) at every point v of
        product(*box), in that order, K_j being the shifted count.  Each
        vertex gets a row of weights over its range per part, up to its
        largest part; a composition adds K_j times the outer product of its
        rows.  K_j is counted only when some point gives it a nonzero
        weight."""
        points = prod(map(len, box))
        if not points:
            return []
        if points == 1:
            # one point: its weight per composition is a product of numbers,
            # cheaper than rows that few compositions would read
            point = [r[0] for r in box]
            total = 0
            for j in self.compositions:
                w = prod(map(weight, point, j))
                if w and (k := self.shifted_count(j)):
                    total += w * k * scale(j) if scale else w * k
            return [total]
        # a row per part up to the largest part the vertex takes
        rows = [[tuple(map(weight, r, repeat(k))) for k in range(top + 1)]
                for r, top in zip(box, map(max, zip(*self.compositions)))]
        totals = [0] * points
        for j in self.compositions:
            cols = list(map(getitem, rows, j))
            # the outer product has a nonzero entry when every row has one
            if all(map(any, cols)) and (k := self.shifted_count(j)):
                if scale:
                    k *= scale(j)
                totals = list(map(add, totals, map(k.__mul__, map(prod, product(*cols)))))
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
        return self._sum(checked_box(box, self.graph, 0, "netflow"), pow,
                         partial(multinomial, self.excess))

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
