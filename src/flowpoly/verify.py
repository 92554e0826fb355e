"""Exhaustive identity checks over generated graph families.

The family for a given bound is every connected multigraph on 3 up to
max_vertices vertices with at most max_edges edges, per-pair multiplicity
at most mult_cap, and at least one outgoing edge at every non-sink vertex.
Each suite walks the family, compares a closed-form evaluator against the
brute-force counter (or runs the full dissection reports), and collects
counterexamples.  The formula side keeps one LidskiiTerms per graph, so the
graph checks, the dominant compositions and the shifted counts are done
once per graph rather than once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator

from .geometry import verify_dissection, verify_in_vector_bijection
from .kostant import FlowInstance, normalized_volume_oracle
from .lidskii import LidskiiTerms, in_plus_c_netflow
# the evaluators stay importable from this module
from .lidskii import lidskii_count, lidskii_count_c_form, lidskii_volume  # noqa: F401
from .multigraph import DirectedMultigraph, NetflowVector
from .reduction import DEFAULT_NODE_CAP, canonical_reduction_tree, leaf_census


def iter_family(
    max_vertices: int,
    max_edges: int,
    *,
    min_vertices: int = 3,
    mult_cap: int = 2,
) -> Iterator[DirectedMultigraph]:
    """Deterministic enumeration of the test family, smallest vertex count
    first, multiplicity vectors in lexicographic order."""
    for nv in range(min_vertices, max_vertices + 1):
        pairs = [(i, j) for i in range(1, nv + 1) for j in range(i + 1, nv + 1)]
        for mults in product(range(mult_cap + 1), repeat=len(pairs)):
            total = sum(mults)
            if total > max_edges or total < nv - 1:
                continue
            # every non-sink vertex needs an out-edge
            if len({i for (i, _), k in zip(pairs, mults) if k}) != nv - 1:
                continue
            edges = []
            for pair, k in zip(pairs, mults):
                edges.extend([pair] * k)
            graph = DirectedMultigraph(nv, tuple(edges))
            if not graph.is_connected():
                continue
            yield graph


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.instances} instances"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line


def _graph_payload(graph: DirectedMultigraph) -> dict:
    return {"vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]}


def run_eq2_suite(
    max_vertices: int = 5,
    max_edges: int = 8,
    max_netflow: int = 3,
    *,
    corrupt: bool = False,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Closed-form lattice-point count against the brute-force count, over
    every nice-chamber netflow with entries 0..max_netflow."""
    result = SuiteResult("eq2 (lattice-point formula)")
    for graph in iter_family(max_vertices, max_edges):
        terms = LidskiiTerms(graph)
        n = graph.vertex_count - 1
        for head in product(range(max_netflow + 1), repeat=n):
            a = NetflowVector.completing(head)
            formula = terms.count(a)
            if corrupt:
                formula += 1
            direct = terms.counter.count(a)
            result.instances += 1
            if formula != direct:
                result.failures.append(
                    {"graph": _graph_payload(graph), "netflow": list(a.entries),
                     "formula": formula, "count": direct}
                )
            if progress and result.instances % 50000 == 0:
                progress(result.instances)
    return result


def run_eq1_suite(
    max_vertices: int = 5,
    max_edges: int = 8,
    max_netflow: int = 3,
    *,
    corrupt: bool = False,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Closed-form volume against the Ehrhart-interpolation volume, over
    strictly positive netflows with entries 1..max_netflow."""
    result = SuiteResult("eq1 (volume formula)")
    for graph in iter_family(max_vertices, max_edges):
        terms = LidskiiTerms(graph)
        n = graph.vertex_count - 1
        for head in product(range(1, max_netflow + 1), repeat=n):
            a = NetflowVector.completing(head)
            formula = terms.volume(a)
            if corrupt:
                formula += 1
            oracle = normalized_volume_oracle(FlowInstance(graph, a), counter=terms.counter)
            result.instances += 1
            if formula != oracle:
                result.failures.append(
                    {"graph": _graph_payload(graph), "netflow": list(a.entries),
                     "formula": formula, "volume": oracle}
                )
            if progress and result.instances % 20000 == 0:
                progress(result.instances)
    return result


def run_thm41_suite(
    max_vertices: int = 5,
    max_edges: int = 8,
    max_c: int = 3,
    *,
    corrupt: bool = False,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Rising-factorial form of the count formula against the brute-force
    count at netflow indeg-1+c, over c with entries 1..max_c."""
    result = SuiteResult("thm41 (c-form count formula)")
    for graph in iter_family(max_vertices, max_edges):
        terms = LidskiiTerms(graph)
        n = graph.vertex_count - 1
        for c in product(range(1, max_c + 1), repeat=n):
            formula = terms.count_c_form(c)
            if corrupt:
                formula += 1
            direct = terms.counter.count(in_plus_c_netflow(graph, c))
            result.instances += 1
            if formula != direct:
                result.failures.append(
                    {"graph": _graph_payload(graph), "c": list(c),
                     "formula": formula, "count": direct}
                )
            if progress and result.instances % 20000 == 0:
                progress(result.instances)
    return result


def run_census_suite(
    max_vertices: int = 5,
    max_edges: int = 7,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Canonical reduction tree leaf census against the flow counts at the
    shifted netflows: for each dominant composition j there must be exactly
    count(j - out, 0) leaves of shape j+1."""
    result = SuiteResult("census (reduction-tree leaves)")
    for graph in iter_family(max_vertices, max_edges):
        terms = LidskiiTerms(graph)
        expected = {j: k for j in terms.compositions if (k := terms.shifted_count(j))}
        tree = canonical_reduction_tree(graph, node_cap=node_cap)
        census = leaf_census(tree)
        result.instances += 1
        if census != expected:
            result.failures.append(
                {"graph": _graph_payload(graph),
                 "census": {str(k): v for k, v in census.items()},
                 "expected": {str(k): v for k, v in expected.items()}}
            )
        if progress and result.instances % 500 == 0:
            progress(result.instances)
    return result


def run_dissection_suite(
    max_vertices: int = 5,
    max_edges: int = 6,
    max_c: int = 3,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    debug_pairwise: bool = False,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Full dissection reports plus the cell-count formula
    sum_j prod_i rising(c_i, j_i)/j_i! * count(j - out, 0)."""
    result = SuiteResult("dissection (unimodular cells)")
    for graph in iter_family(max_vertices, max_edges):
        terms = LidskiiTerms(graph)
        n = graph.vertex_count - 1
        for c in product(range(1, max_c + 1), repeat=n):
            expected_cells = terms.count_c_form(c)
            report = verify_dissection(graph, c, node_cap=node_cap, debug_pairwise=debug_pairwise)
            cell_count = next(
                ch.details["cells"] for ch in report.checks if ch.name == "cell_count_equals_flow_count"
            )
            result.instances += 1
            if not report.passed or cell_count != expected_cells:
                result.failures.append(
                    {"graph": _graph_payload(graph), "c": list(c),
                     "cells": cell_count, "expected_cells": expected_cells,
                     "report": report.to_json()}
                )
            if progress and result.instances % 2000 == 0:
                progress(result.instances)
    return result


def run_in_vector_suite(
    max_vertices: int = 5,
    max_edges: int = 6,
    max_c: int = 3,
    *,
    progress: Callable[[int], None] | None = None,
) -> SuiteResult:
    """Restriction bijection between flows of the graph and of its
    source-augmented form, over c with entries 1..max_c."""
    result = SuiteResult("in-vector (restriction bijection)")
    for graph in iter_family(max_vertices, max_edges):
        n = graph.vertex_count - 1
        for c in product(range(1, max_c + 1), repeat=n):
            report = verify_in_vector_bijection(graph, c)
            result.instances += 1
            if not report.passed:
                result.failures.append(
                    {"graph": _graph_payload(graph), "c": list(c), "report": report.to_json()}
                )
            if progress and result.instances % 5000 == 0:
                progress(result.instances)
    return result


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "eq2": run_eq2_suite,
    "eq1": run_eq1_suite,
    "thm41": run_thm41_suite,
    "census": run_census_suite,
    "dissection": run_dissection_suite,
    "in-vector": run_in_vector_suite,
}
