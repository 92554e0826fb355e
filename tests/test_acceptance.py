"""Acceptance suite: each criterion runs at full stated bounds with zero
tolerance and prints one pass/fail line.  Run with `pytest -s` to watch the
lines appear; the whole module takes several minutes, dominated by the
dissection family."""

import time
from math import comb

from conftest import augmented_levels, phi_map, verify_integral_equivalence

from flowpoly.multigraph import DirectedMultigraph, complete_graph
from flowpoly.reduction import (
    NoncrossingTree,
    ProvenancedGraph,
    canonical_reduction_tree,
    enumerate_noncrossing_trees,
    leaf_census,
    reduce_at_vertex,
)
from flowpoly.verify import (
    run_census_suite,
    run_dissection_suite,
    run_eq1_suite,
    run_eq2_suite,
    run_in_vector_suite,
    run_thm41_suite,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


# Instance counts of the family boxes, so that a suite which skips
# instances cannot pass: one per family graph and point of its box.
EQ2_INSTANCES = 1_316_352
EQ1_INSTANCES = THM41_INSTANCES = 418_887
EQ2_SIX_VERTEX_INSTANCES = 280_848
# graphs of up to 6 vertices and 7 edges, one point each for entries 1..1
SIX_VERTEX_GRAPHS = 10_130


def test_criterion_1_count_formula_identity():
    t0 = time.time()
    result = run_eq2_suite(max_vertices=5, max_edges=8, max_netflow=3)
    _report(
        "criterion 1 (count formula = brute force, netflows 0..3)",
        result.passed and result.instances == EQ2_INSTANCES,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_1_six_vertex_slice():
    t0 = time.time()
    result = run_eq2_suite(max_vertices=6, max_edges=7, max_netflow=1)
    _report(
        "criterion 1 (count formula = brute force, up to 6 vertices and 7 edges, netflows 0..1)",
        result.passed and result.instances == EQ2_SIX_VERTEX_INSTANCES,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_2_volume_formula_identity():
    t0 = time.time()
    result = run_eq1_suite(max_vertices=5, max_edges=8, max_netflow=3)
    _report(
        "criterion 2 (volume formula = Ehrhart leading term, netflows 1..3)",
        result.passed and result.instances == EQ1_INSTANCES,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_2_six_vertex_slice():
    t0 = time.time()
    result = run_eq1_suite(max_vertices=6, max_edges=7, max_netflow=1)
    _report(
        "criterion 2 (volume formula = Ehrhart leading term, up to 6 vertices and 7 edges, "
        "netflows 1..1)",
        result.passed and result.instances == SIX_VERTEX_GRAPHS,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_3_c_form_identity():
    from flowpoly.lidskii import lidskii_count_c_form

    pinned = (
        lidskii_count_c_form(complete_graph(4), (1, 1, 1)) == 2
        and lidskii_count_c_form(complete_graph(4), (3, 2, 2)) == 22
    )
    t0 = time.time()
    result = run_thm41_suite(max_vertices=5, max_edges=8, max_c=3)
    _report(
        "criterion 3 (c-form count formula, c entries 1..3)",
        result.passed and pinned and result.instances == THM41_INSTANCES,
        f"{result.instances} instances, pinned K4 values {'ok' if pinned else 'WRONG'}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_3_six_vertex_slice():
    t0 = time.time()
    result = run_thm41_suite(max_vertices=6, max_edges=7, max_c=1)
    _report(
        "criterion 3 (c-form count formula, up to 6 vertices and 7 edges, c entries 1..1)",
        result.passed and result.instances == SIX_VERTEX_GRAPHS,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_4_reduction_tree_census():
    census = leaf_census(canonical_reduction_tree(complete_graph(4)))
    pinned = census == {(2, 1, 0): 1, (3, 0, 0): 1}
    t0 = time.time()
    result = run_census_suite(max_vertices=5, max_edges=7)
    _report(
        "criterion 4 (canonical tree leaf census)",
        result.passed and pinned,
        f"{result.instances} graphs, K4 census {'ok' if pinned else 'WRONG'}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_4_six_vertex_slice():
    t0 = time.time()
    result = run_census_suite(max_vertices=6, max_edges=7)
    _report(
        "criterion 4 (canonical tree leaf census, up to 6 vertices and 7 edges)",
        result.passed and result.instances == SIX_VERTEX_GRAPHS,
        f"{result.instances} graphs, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_5_noncrossing_tree_counts():
    ok = True
    checked = 0
    for l in range(1, 9):
        for r in range(1, 9):
            trees = enumerate_noncrossing_trees(l, r)
            if len(trees) != comb(l + r - 2, l - 1) or len(set(trees)) != len(trees):
                ok = False
            for t in trees:
                if t.structure_error() is not None:
                    ok = False
            checked += len(trees)
    _report("criterion 5 (noncrossing tree counts, sides up to 8)", ok, f"{checked} trees checked")


def test_criterion_6_unimodular_dissection():
    t0 = time.time()
    result = run_dissection_suite(max_vertices=5, max_edges=6, max_c=3)
    _report(
        "criterion 6 (unimodular dissection of the augmented polytope)",
        result.passed,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_6_six_vertex_slice():
    t0 = time.time()
    result = run_dissection_suite(max_vertices=6, max_edges=7, max_c=1)
    _report(
        "criterion 6 (unimodular dissection, up to 6 vertices and 7 edges, c entries 1..1)",
        result.passed and result.instances == SIX_VERTEX_GRAPHS,
        f"{result.instances} instances, {len(result.failures)} failures, {time.time() - t0:.0f}s",
    )


def test_criterion_7_in_vector_bijection():
    t0 = time.time()
    result = run_in_vector_suite(max_vertices=5, max_edges=6, max_c=3)
    _report(
        "criterion 7 (restriction bijection to the augmented graph)",
        result.passed,
        f"{result.instances} instances, {time.time() - t0:.0f}s",
    )


def test_criterion_8_phi_lattice_fidelity():
    k4 = complete_graph(4)
    ok = True
    for node in canonical_reduction_tree(k4).nodes():
        if not verify_integral_equivalence(node.graph, (1, 1, 1, -3)):
            ok = False
    for level in augmented_levels(k4, (3, 2, 2)):
        for node in level:
            if not verify_integral_equivalence(node, (1, 0, 0, 0, -1)):
                ok = False

    # golden coordinate-map value, reproduced bit-exactly
    root = DirectedMultigraph(4, ((1, 4), (1, 4), (1, 2), (2, 4), (2, 4), (3, 4)))
    node = reduce_at_vertex(
        ProvenancedGraph.as_root(root),
        2,
        (2,),
        (3, 4),
        NoncrossingTree(2, 2, ((1, 1), (1, 2), (2, 2))),
    )
    golden = phi_map(node, (0, 1, 0, 1, 1, 1)) == (0, 1, 1, 0, 2, 1)
    if not verify_integral_equivalence(node, (2, 1, 0, -3)):
        ok = False
    _report(
        "criterion 8 (coordinate-map lattice fidelity and golden value)",
        ok and golden,
        f"golden image {'ok' if golden else 'WRONG'}, trees checked at t=1,2",
    )
