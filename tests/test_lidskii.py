"""Closed-form evaluators, coefficients, dominance-constrained compositions."""

from itertools import accumulate, product, repeat
from math import comb, factorial, prod
from operator import add, getitem, le, sub

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SpyCounter, path_graph
from flowpoly.kostant import FlowCounter, FlowInstance, count_flows
from flowpoly.lidskii import (
    LidskiiTerms,
    dominant_compositions,
    in_plus_c_netflow,
    lidskii_count,
    lidskii_count_c_form,
    lidskii_volume,
    multiset_coeff,
)
from flowpoly.multigraph import (
    DirectedMultigraph,
    NetflowVector,
    complete_graph,
    degree_stats,
)
from flowpoly.verify import iter_family


def dominates(parts, lower):
    """Prefix-sum dominance: every prefix of parts sums to at least the
    corresponding prefix of lower."""
    acc = 0
    for p, b in zip(parts, lower):
        acc += p - b
        if acc < 0:
            return False
    return True


class TestMultisetCoeff:
    def test_examples(self):
        assert multiset_coeff(3, 2) == 6
        assert multiset_coeff(5, 0) == 1
        assert multiset_coeff(1, 3) == 1

    def test_generalized_values(self):
        # rising-factorial reading; signed for negative first argument
        assert multiset_coeff(-1, 0) == 1
        assert multiset_coeff(-1, 1) == -1
        assert multiset_coeff(0, 3) == 0
        assert multiset_coeff(-2, 4) == 0  # product crosses zero
        assert multiset_coeff(-3, 2) == 3

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            multiset_coeff(2, -1)

    def test_rising_product_grid(self):
        for n in range(-30, 31):
            for k in range(31):
                rising = prod(range(n, n + k))  # n(n+1)...(n+k-1), 1 at k = 0
                assert rising % factorial(k) == 0
                assert multiset_coeff(n, k) == rising // factorial(k), (n, k)


class TestRisingFactorial:
    # rising factorial c(c+1)...(c+j-1) / j!, read through multiset_coeff
    def test_examples(self):
        assert multiset_coeff(1, 2) == 1
        assert multiset_coeff(3, 3) == 10
        for c in (-4, 0, 1, 7):
            assert multiset_coeff(c, 0) == 1


class TestDominantCompositions:
    def test_k4_example(self):
        assert dominant_compositions(3, (2, 1, 0)) == [(2, 1, 0), (3, 0, 0)]

    def test_zero_total(self):
        assert dominant_compositions(0, (0, 0, 0)) == [(0, 0, 0)]

    def test_two_parts(self):
        assert dominant_compositions(2, (1, 1)) == [(1, 1), (2, 0)]

    def test_rejects_mismatched_total(self):
        with pytest.raises(ValueError):
            dominant_compositions(3, (1, 1))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.data())
    def test_closure_against_brute_force(self, n, data):
        lower = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        total = sum(lower)
        got = set(dominant_compositions(total, lower))
        every = [
            j for j in product(range(total + 1), repeat=n) if sum(j) == total
        ]
        for j in every:
            assert (j in got) == dominates(j, lower)

    def test_non_integer_bounds_refused(self):
        # int() would truncate the bounds (1.9, 1.9) to (1, 1)
        with pytest.raises(ValueError, match=r"^lower entry 0 = 1\.9 is not an integer$"):
            dominant_compositions(2, (1.9, 1.9))
        with pytest.raises(ValueError, match=r"^total entry 0 = 2\.0 is not an integer$"):
            dominant_compositions(2.0, (1, 1))

    def test_lexicographic_order(self):
        got = dominant_compositions(4, (2, 1, 1))
        assert got == sorted(got)


class TestLidskiiVolume:
    def test_k4_unit(self):
        assert lidskii_volume(complete_graph(4), (1, 0, 0, -1)) == 1

    def test_k4_example(self):
        assert lidskii_volume(complete_graph(4), (1, 1, 0, -2)) == 4

    def test_path_always_one(self):
        for a in ((1, 1, -2), (3, 2, -5), (2, 0, -2)):
            assert lidskii_volume(path_graph(3), a) == 1

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="connected"):
            lidskii_volume(DirectedMultigraph(4, ((1, 2), (3, 4))), (1, 0, 1, -2))
        with pytest.raises(ValueError, match="vertex 2"):
            lidskii_volume(DirectedMultigraph(3, ((1, 2), (1, 3))), (1, 0, -1))
        with pytest.raises(ValueError, match="nice chamber"):
            lidskii_volume(complete_graph(4), (1, -1, 1, -1))


def catalan(i: int) -> int:
    return comb(2 * i, i) // (i + 1)


class TestVolumeLadders:
    """Volumes of complete-graph flow polytopes against closed forms that do
    not use the counter."""

    @pytest.mark.parametrize("nv", range(4, 11))
    def test_chan_robbins_yuen(self, nv):
        # unit netflow: prod_{i=1}^{nv-3} Cat(i) (Zeilberger 1999)
        a = (1,) + (0,) * (nv - 2) + (-1,)
        expected = prod(catalan(i) for i in range(1, nv - 2))
        assert lidskii_volume(complete_graph(nv), a) == expected

    @pytest.mark.parametrize("nv", range(4, 10))
    def test_tesler(self, nv):
        # all-ones netflow: C(N)! 2^C(N) / prod_{i=1}^{N} i!, N = nv - 1 and
        # C(N) = N choose 2 (Meszaros-Morales-Rhoades)
        n = nv - 1
        c = comb(n, 2)
        expected = factorial(c) * 2**c // prod(factorial(i) for i in range(1, n + 1))
        assert lidskii_volume(complete_graph(nv), (1,) * n + (-n,)) == expected


class TestLidskiiCount:
    def test_k4_unit(self):
        assert lidskii_count(complete_graph(4), (1, 0, 0, -1)) == 4

    def test_k4_two(self):
        assert lidskii_count(complete_graph(4), (0, 1, 2, -3)) == 2

    def test_path_always_one(self):
        for a in ((1, 1, -2), (0, 2, -2), (3, 0, -3)):
            assert lidskii_count(path_graph(3), a) == 1

    def test_small_entry_regression(self):
        # needs the signed multiset coefficient: the (2,0) composition term
        # must be partly cancelled by the (1,1) term
        g = DirectedMultigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
        a = NetflowVector((0, 0, 0))
        assert count_flows(FlowInstance(g, a)) == 1
        assert lidskii_count(g, a) == 1


class TestCForm:
    def test_k4_ones(self):
        assert lidskii_count_c_form(complete_graph(4), (1, 1, 1)) == 2

    def test_k4_322(self):
        assert lidskii_count_c_form(complete_graph(4), (3, 2, 2)) == 22
        assert count_flows(FlowInstance(complete_graph(4), NetflowVector((2, 2, 3, -7)))) == 22

    def test_path(self):
        assert lidskii_count_c_form(path_graph(3), (5, 7)) == 1

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            lidskii_count_c_form(complete_graph(4), (1, 0, 1))

    def test_rejects_non_integer_c(self):
        # int() would truncate c to (1, 1, 1)
        with pytest.raises(ValueError, match=r"^c entry 0 = 1\.5 is not an integer$"):
            lidskii_count_c_form(complete_graph(4), (1.5, 1, 1))
        with pytest.raises(ValueError, match="c entry 2"):
            LidskiiTerms(complete_graph(4)).count_c_form((1, 1, 1.0))

    def test_in_plus_c_netflow_refuses_bad_c(self):
        # one positive integer per non-sink vertex, as count_c_form and
        # attach_source ask; zip would drop entries silently or give a
        # netflow as short as c
        k4 = complete_graph(4)
        assert in_plus_c_netflow(k4, (1, 1, 1)).entries == (0, 1, 2, -3)
        for c, message in (((1, 1), "3 entries, one per non-sink vertex, got 2"),
                           ((1, 1, 1, 1, 1), "3 entries, one per non-sink vertex, got 5"),
                           ((0, -3, 1), r"c\[0\] = 0 must be positive"),
                           ((1, 1.5, 1), r"c entry 1 = 1\.5 is not an integer")):
            for fn in (in_plus_c_netflow, lidskii_count_c_form):
                with pytest.raises(ValueError, match=message):
                    fn(k4, c)

    def test_matches_count_at_shifted_netflow(self):
        for g in (complete_graph(4), complete_graph(3), path_graph(4)):
            counter = FlowCounter(g)
            n = g.vertex_count - 1
            for c in product((1, 2, 3), repeat=n):
                a = in_plus_c_netflow(g, c)
                assert LidskiiTerms(g, counter).count_c_form(c) == LidskiiTerms(g, counter).count(a)


class TestLidskiiTerms:
    def test_agrees_with_wrappers_and_counter(self):
        # one object per graph across every netflow and c vector, so a
        # stale or misplaced shifted count would show
        for g in iter_family(4, 6):
            terms = LidskiiTerms(g)
            counter = FlowCounter(g)
            n = g.vertex_count - 1
            for head in product(range(3), repeat=n):
                a = NetflowVector.completing(head)
                count = terms.count(a)
                assert count == lidskii_count(g, a) == counter.count(a)
                assert terms.volume(a) == lidskii_volume(g, a)
            for c in product((1, 2), repeat=n):
                value = terms.count_c_form(c)
                assert value == lidskii_count_c_form(g, c)
                assert value == counter.count(in_plus_c_netflow(g, c))

    def test_shifted_counts_match_direct(self):
        g = complete_graph(4)
        terms = LidskiiTerms(g)
        assert terms.compositions == [(2, 1, 0), (3, 0, 0)]
        counter = FlowCounter(g)
        for j in terms.compositions:
            shifted = tuple(ji - oi for ji, oi in zip(j, (2, 1, 0))) + (0,)
            assert terms.shifted_count(j) == counter.count(shifted)
        # any j, not only a composition: (300, 0, -297) has a negative part
        # and needs wider slots than the compositions do
        assert terms.shifted_count((300, 0, -297)) == counter.count((298, -1, -297, 0)) == 298
        assert terms.shifted_count((0, 0, 3)) == 0

    @pytest.mark.parametrize("nv", range(5, 9))
    def test_zero_weights_are_never_counted(self, nv):
        # at the unit netflow only the composition (|E|-n, 0, ..., 0) has a
        # nonzero volume weight, and its K_j is the only one read
        g = complete_graph(nv)
        spy = SpyCounter(g)
        terms = LidskiiTerms(g, spy)
        a = (1,) + (0,) * (nv - 2) + (-1,)
        assert terms.volume(a) == prod(catalan(i) for i in range(1, nv - 2))
        assert len(spy.asked) == 1
        terms.shifted_count((comb(nv - 1, 2),) + (0,) * (nv - 2))
        assert spy.asked[1] == spy.asked[0]

    @pytest.mark.parametrize("graph, evaluate, caps", [
        # a zero head caps its vertex's volume part at 0, a c of 0 or -1
        # the count's at 0 or 1
        (complete_graph(6), lambda t: t.volume((2, 0, 1, 0, 0, -3)), (10, 0, 10, 0, 0)),
        (complete_graph(5), lambda t: t.c_form_counts([range(1, 3)] * 4), None),
        (complete_graph(5), lambda t: t.counts([range(2), (0,), range(3), (1,)]), (6, 0, 6, 1)),
    ])
    def test_reads_the_listed_compositions_in_order(self, graph, evaluate, caps):
        assert listed_reads(graph, evaluate, caps) > 1

    def test_reads_every_listed_composition_on_family(self):
        # at the netflow whose heads are all 1 no volume weight vanishes, so
        # no cap applies
        graphs = compositions = 0
        for g in iter_family(5, 7):
            n = g.vertex_count - 1
            compositions += listed_reads(g, lambda t: t.volume((1,) * n + (-n,)))
            graphs += 1
        assert (graphs, compositions) == (2560, 11353)

    def test_counter_on_another_graph_refused(self):
        # the doubled graph has K4's vertex count, so no length check sees
        # it: K4's terms read off its counter gave volume 5, not 4; counters
        # on more or fewer vertices are refused as well
        k4 = complete_graph(4)
        doubled = DirectedMultigraph(4, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (1, 4)))
        for graph in (doubled, complete_graph(5), path_graph(4)):
            with pytest.raises(ValueError, match="another graph"):
                LidskiiTerms(k4, FlowCounter(graph))
        assert LidskiiTerms(k4, FlowCounter(complete_graph(4))).volume((1, 1, 1, -3)) == 4

    def test_shifted_counts_are_kept(self):
        # the counter's memo keeps every K_j: a second evaluation asks only
        # root states that the first one asked, and gives the same value
        g = complete_graph(5)
        spy = SpyCounter(g)
        terms = LidskiiTerms(g, spy)
        first = terms.volume((1, 1, 1, 1, -4))
        asked = set(spy.asked)
        assert len(spy.asked) == len(asked) == len(terms.compositions)
        assert terms.volume((1, 1, 1, 1, -4)) == first
        terms.count((1, 1, 1, 1, -4))
        assert set(spy.asked) == asked
        assert spy.asked[:len(asked)] == spy.asked[len(asked):2 * len(asked)]

    def test_counter_widened_between_evaluations(self):
        # a head of 200 needs 16-bit slots, so the count_box between the two
        # evaluations drops the memo that the first one filled
        g = complete_graph(4)
        terms = LidskiiTerms(g)
        heads, cs = [range(3)] * 3, [range(1, 3)] * 3

        def evaluate(t):
            return t.volumes(heads), t.counts(heads), t.c_form_counts(cs)

        first = evaluate(terms)
        assert terms.counter.count_box([(200,), (0,), (0,)]) == [comb(203, 3)]
        fresh = LidskiiTerms(g)
        assert evaluate(terms) == evaluate(fresh) == first

    def test_per_call_checks(self):
        terms = LidskiiTerms(complete_graph(4))
        with pytest.raises(ValueError, match="length"):
            terms.volume((1, -1))
        with pytest.raises(ValueError, match="nice chamber"):
            terms.count((1, -1, 1, -1))
        with pytest.raises(ValueError, match="3 entries"):
            terms.count_c_form((1, 1))
        with pytest.raises(ValueError, match="positive"):
            terms.count_c_form((1, 0, 1))


class TestLidskiiBoxes:
    """The box methods against the one-point methods at every point."""

    @staticmethod
    def boxes(n, low):
        yield [range(low, low + 3)] * n
        yield [range(low, low + 2)] + [(low + 1,)] * (n - 1)  # one wide range, the rest single
        yield [(low + 2,)] * n  # one point

    def test_equal_the_one_point_methods_on_family(self):
        points = 0
        for g in iter_family(4, 6):
            n = g.vertex_count - 1
            terms = LidskiiTerms(g)
            for box in self.boxes(n, 0):
                heads = [NetflowVector.completing(h) for h in product(*box)]
                single = LidskiiTerms(g)
                assert terms.counts(box) == [single.count(a) for a in heads], (g.edges, box)
                assert terms.volumes(box) == [single.volume(a) for a in heads], (g.edges, box)
                points += len(heads)
            for box in self.boxes(n, 1):
                single = LidskiiTerms(g)
                c_values = [single.count_c_form(c) for c in product(*box)]
                assert terms.c_form_counts(box) == c_values, (g.edges, box)
        assert points == 5532

    def test_empty_range_gives_no_values(self):
        terms = LidskiiTerms(complete_graph(4))
        assert terms.counts([range(2), range(0), range(2)]) == []
        assert terms.volumes([range(1, 1)] * 3) == []
        assert terms.c_form_counts([range(1, 3), range(1, 3), ()]) == []

    def test_zero_weights_are_never_counted(self):
        # over heads (h, 0, ..., 0) only the composition (|E|-n, 0, ..., 0)
        # has a nonzero volume weight at any point
        g = complete_graph(6)
        spy = SpyCounter(g)
        volumes = LidskiiTerms(g, spy).volumes([range(1, 4)] + [(0,)] * 4)
        assert volumes == [prod(catalan(i) for i in range(1, 4)) * h ** 10 for h in range(1, 4)]
        assert len(spy.asked) == 1

    @pytest.mark.parametrize("method, box, message", [
        ("counts", [range(2)] * 2, "3 ranges, one per non-sink vertex, got 2"),
        ("volumes", [range(2), range(-1, 1), range(2)], "range 1 holds -1, below 0"),
        ("counts", [range(2), range(2), (1.5,)], r"range 2 entry 0 = 1\.5 is not an integer"),
        ("c_form_counts", [range(1, 3), range(0, 2), range(1, 3)], "range 1 holds 0, below 1"),
        ("c_form_counts", [range(1, 3)] * 4, "3 ranges, one per non-sink vertex, got 4"),
    ])
    def test_bad_boxes_refused(self, method, box, message):
        with pytest.raises(ValueError, match=message):
            getattr(LidskiiTerms(complete_graph(4)), method)(box)


def listed_reads(graph, evaluate, caps=None):
    """How many K_j one evaluate(terms) reads on a spied counter, checked to
    be one read per composition dominant_compositions lists, less those with
    a part above its cap, in its order."""
    spy = SpyCounter(graph)
    terms = LidskiiTerms(graph, spy)
    evaluate(terms)
    read = len(spy.asked)
    listed = dominant_compositions(terms.excess, terms.out_shift)
    if caps:
        listed = [j for j in listed if all(map(le, j, caps))]
    for j in listed:
        terms.shifted_count(j)
    assert read == len(listed)
    assert spy.asked[:read] == spy.asked[read:]
    return read


def listed_sum(graph, box, weight, scale=None):
    """The composition sum of LidskiiTerms as one list and one loop, the
    reference for its walk: every dominant composition j is listed first
    and those with a part above its cap are dropped, then each term is
    rebuilt from scratch, K_j read through a reader of a fresh counter,
    times scale(j) and the outer product of the rows at j."""
    points = prod(map(len, box))
    if not points:
        return []
    out = degree_stats(graph).out_shift
    excess = graph.edge_count - (graph.vertex_count - 1)
    tops = list(accumulate(out, sub, initial=excess))
    rows = []
    for r, top in zip(box, tops):
        rows.append(row := [])
        for k in range(top + 1):
            if not any(w := tuple(map(weight, r, repeat(k)))):
                break
            row.append(w)
    caps = [len(row) - 1 for row in rows]
    shifted = FlowCounter(graph)._reader(max(excess, *out, 0), [-o for o in out])
    totals = [0] * points
    for j in dominant_compositions(excess, out):
        if all(map(le, j, caps)) and (k := shifted(j)):
            if scale:
                k *= scale(j)
            totals = list(map(add, totals, map(k.__mul__, map(prod, product(*map(getitem, rows, j))))))
    return totals


class TestWalkAgainstListedSum:
    """The walk of LidskiiTerms against listed_sum, over boxes and their
    one-point forms."""

    @staticmethod
    def assert_same(graph, heads, cs):
        terms = LidskiiTerms(graph)
        shift = degree_stats(graph).in_shift

        def multinomial(j):
            # multinomial(sum(j); j), one binomial per part
            return prod(comb(sum(j[k:]), jk) for k, jk in enumerate(j))

        for box in [heads] + [[(h,) for h in point] for point in product(*heads)]:
            assert terms.volumes(box) == listed_sum(graph, box, pow, multinomial)
            shifted = [[h - s for h in r] for r, s in zip(box, shift)]
            assert terms.counts(box) == listed_sum(graph, shifted, multiset_coeff)
        for box in [cs] + [[(c,) for c in point] for point in product(*cs)]:
            assert terms.c_form_counts(box) == listed_sum(graph, box, multiset_coeff)

    def test_family(self):
        graphs = 0
        for g in iter_family(4, 6):
            n = g.vertex_count - 1
            self.assert_same(g, [range(3)] * n, [range(1, 3)] * n)
            graphs += 1
        assert graphs == 194

    @pytest.mark.parametrize("nv", range(4, 8))
    def test_complete_graphs(self, nv):
        # the Chan-Robbins-Yuen and Tesler netflows, and the box they span
        n = nv - 1
        g = complete_graph(nv)
        self.assert_same(g, [(1,)] + [range(2)] * (n - 1), [range(1, 3)] + [(1,)] * (n - 1))

    def test_one_vertex(self):
        # the empty composition: a point, whose one flow is the zero flow
        terms = LidskiiTerms(DirectedMultigraph(1, ()))
        assert terms.volume((0,)) == terms.count((0,)) == 1
        assert terms.volumes([]) == terms.counts([]) == terms.c_form_counts([]) == [1]

    def test_one_edge_group(self):
        # three parallel edges 1 -> 2: the one composition (2,), flows at
        # (3, -3) being the C(5, 2) splits of 3 units and the volume 3^2
        terms = LidskiiTerms(DirectedMultigraph(2, ((1, 2),) * 3))
        assert terms.volume((3, -3)) == 9
        assert terms.count((3, -3)) == 10
        # at head 0 the volume's weight 0^2 caps the one part below it
        assert terms.volumes([range(4)]) == [0, 1, 4, 9]
        assert terms.volume((0, 0)) == 0
        assert terms.counts([range(4)]) == [1, 3, 6, 10]
        assert terms.c_form_counts([range(1, 4)]) == [1, 3, 6]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_count_formula_matches_oracle_random(data):
    graphs = list(iter_family(5, 7))
    g = data.draw(st.sampled_from(graphs))
    n = g.vertex_count - 1
    head = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    a = NetflowVector.completing(head)
    assert lidskii_count(g, a) == count_flows(FlowInstance(g, a))
