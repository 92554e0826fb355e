"""Exhaustive identity checks over generated graph families.

The family for a given bound is every connected multigraph on 3 up to
max_vertices vertices with at most max_edges edges, per-pair multiplicity
at most 2, and at least one outgoing edge at every non-sink vertex.
One family walk, _run_family, serves every suite: it counts the
instances and collects the counterexamples.  A suite gives it a title
and, per graph, a generator over its parameter box that compares a
closed-form evaluator against the brute-force counter (or certifies the
dissection) and yields None for a passing instance or the
counterexample's fields.  On one graph the instances of the eq2, eq1,
thm41 and dissection suites form a box, one range of netflow heads or c
values per non-sink vertex, and each side is evaluated over the whole box
at once: the formula side by one LidskiiTerms (counts, volumes,
c_form_counts), the oracle side by its FlowCounter (count_box, or
normalized_volume_box for eq1), and the dissection's five checks by
geometry.certify_dissection_box, which builds a report only for a failing
c.  The lists are compared point by point, in the box's product order.

No state is shared across graphs, so _run_family splits the family
round-robin by graph index over forked worker processes, one per usable
CPU (the FLOWPOLY_WORKERS environment variable caps the count; 1 runs
serially, in this process).  The results are merged in graph order, so a
SuiteResult, and a raised error, are those of a serial run.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterator

from .geometry import certify_dissection_box, verify_in_vector_bijection
from .kostant import normalized_volume_box
from .lidskii import LidskiiTerms
# the evaluators stay importable from this module
from .lidskii import lidskii_count, lidskii_count_c_form, lidskii_volume  # noqa: F401
from .multigraph import DirectedMultigraph
from .reduction import DEFAULT_NODE_CAP, tree_census


def iter_family(max_vertices: int, max_edges: int) -> Iterator[DirectedMultigraph]:
    """Deterministic enumeration of the test family, smallest vertex count
    first, multiplicity vectors (entries 0..2) in lexicographic order.  An
    out-edge at every non-sink vertex makes the graph connected."""
    for nv in range(3, min(max_vertices, max_edges + 1) + 1):
        for edges in _family_edges(nv, 1, 2, max_edges, False):
            yield DirectedMultigraph(nv, edges)


def _family_edges(nv: int, tail: int, head: int, budget: int, has_out: bool) -> Iterator[tuple]:
    """The edges on the pairs from (tail, head) on, in the family's order,
    at most budget in all; has_out says whether tail has an edge yet."""
    if tail == nv:
        yield ()
        return
    last = head == nv
    at = (tail + 1, tail + 2) if last else (tail, head + 1)
    for m in range(last and not has_out, 3):  # the last pair of a tail with no edge yet gives one
        out = has_out or m > 0
        if budget - m < nv - 1 - tail + (not out):  # an edge kept for each tail owed one
            break
        for rest in _family_edges(nv, *at, budget - m, out and not last):
            yield ((tail, head),) * m + rest


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


def _box(graph: DirectedMultigraph, low: int, high: int) -> list[range]:
    """The range low..high at every non-sink vertex: the box whose product
    is every vector of those entries."""
    return [range(low, high + 1)] * (graph.vertex_count - 1)


Instances = Callable[[DirectedMultigraph], Iterator[dict | None]]
# A share's result: its instance count, its (graph index, counterexample)
# pairs and the first error it raised with the graph index, or None.
Share = tuple[int, list[tuple[int, dict]], tuple[int, Exception] | None]


def _worker_count(graphs: int) -> int:
    """Processes to split a family of `graphs` graphs over: the usable CPUs,
    at most FLOWPOLY_WORKERS when it is set, and at most one per graph.  1
    where os.fork is missing or other threads run in this process, which a
    fork would copy in whatever state they are in."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    env = os.environ.get("FLOWPOLY_WORKERS")
    if env is not None:
        try:
            wanted = int(env)
        except ValueError:
            wanted = 0
        if wanted < 1:
            raise ValueError(f"FLOWPOLY_WORKERS={env!r} is not a positive integer")
        usable = min(usable, wanted)
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(usable, graphs))


def _run_share(graphs: list[DirectedMultigraph], start: int, step: int, instances: Instances) -> Share:
    """Run the instances of graphs[start::step], stopping at the first error."""
    count, failures = 0, []
    for index in range(start, len(graphs), step):
        graph = graphs[index]
        try:
            for failure in instances(graph):
                count += 1
                if failure is not None:
                    failures.append((index, {"graph": _graph_payload(graph), **failure}))
        except Exception as exc:  # handed to _run_family, which re-raises it
            return count, failures, (index, exc)
    return count, failures, None


def _run_shares(graphs: list[DirectedMultigraph], workers: int, instances: Instances) -> list[Share]:
    """Run share 0 here and shares 1..workers-1 in forked children, each of
    which sends its share back pickled through a pipe; one worker forks
    nothing.  Every child is reaped before this returns or raises; on an
    error or an interrupt the ones still running are killed first."""
    import pickle
    import signal

    running: dict[int, int] = {}  # child pid -> the read end of its pipe
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # os._exit never returns into the caller's code, so the child
                # flushes none of its buffered output and runs no exit hooks
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_run_share(graphs, k, workers, instances), pipe,
                                    pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            running[pid] = read_fd
            os.close(write_fd)
        shares = [_run_share(graphs, 0, workers, instances)]
        for pid, read_fd in list(running.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(read_fd)
            del running[pid]
            if status != 0 or not data:
                raise ChildProcessError(
                    f"verify worker exited with status {os.waitstatus_to_exitcode(status)} "
                    "without a result")
            # bytes a forked copy of this process wrote
            shares.append(pickle.loads(data))
        return shares
    finally:
        for pid, read_fd in running.items():
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)


def _run_family(title: str, max_vertices: int, max_edges: int, instances: Instances) -> SuiteResult:
    """Walk the family; instances(graph) yields None for each passing
    instance and the counterexample's fields for each failing one.  The
    graphs are split over _worker_count processes; the counterexamples come
    back in graph order, and of the errors raised the one at the smallest
    graph index, the one a serial walk stops at, is raised here."""
    graphs = list(iter_family(max_vertices, max_edges))
    shares = _run_shares(graphs, _worker_count(len(graphs)), instances)
    errors = [error for _, _, error in shares if error is not None]
    if errors:
        raise min(errors, key=itemgetter(0))[1]
    failures = sorted(chain.from_iterable(failures for _, failures, _ in shares), key=itemgetter(0))
    return SuiteResult(title, sum(count for count, _, _ in shares), [f for _, f in failures])


def run_eq2_suite(max_vertices: int = 5, max_edges: int = 8, max_netflow: int = 3) -> SuiteResult:
    """Closed-form lattice-point count against the brute-force count, over
    every nice-chamber netflow with entries 0..max_netflow."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        box = _box(graph, 0, max_netflow)
        for head, formula, direct in zip(product(*box), terms.counts(box), terms.counter.count_box(box)):
            yield None if formula == direct else {
                "netflow": [*head, -sum(head)], "formula": formula, "count": direct}

    return _run_family("eq2 (lattice-point formula)", max_vertices, max_edges, instances)


def run_eq1_suite(max_vertices: int = 5, max_edges: int = 8, max_netflow: int = 3) -> SuiteResult:
    """Closed-form volume against the volume from the Ehrhart difference
    table, over strictly positive netflows with entries 1..max_netflow."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        box = _box(graph, 1, max_netflow)
        oracles = normalized_volume_box(terms.counter, box)
        for head, formula, oracle in zip(product(*box), terms.volumes(box), oracles):
            yield None if formula == oracle else {
                "netflow": [*head, -sum(head)], "formula": formula, "volume": oracle}

    return _run_family("eq1 (volume formula)", max_vertices, max_edges, instances)


def run_thm41_suite(max_vertices: int = 5, max_edges: int = 8, max_c: int = 3) -> SuiteResult:
    """Rising-factorial form of the count formula against the brute-force
    count at netflow indeg-1+c, over c with entries 1..max_c."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        box = _box(graph, 1, max_c)
        # the oracle's netflows indeg-1+c, from the graph's own degree counts
        shifted = [range(i + 1, i + max_c + 1) for i in terms.in_shift]
        for c, formula, direct in zip(product(*box), terms.c_form_counts(box),
                                      terms.counter.count_box(shifted)):
            yield None if formula == direct else {
                "c": list(c), "formula": formula, "count": direct}

    return _run_family("thm41 (c-form count formula)", max_vertices, max_edges, instances)


def run_census_suite(
    max_vertices: int = 5, max_edges: int = 7, *, node_cap: int = DEFAULT_NODE_CAP
) -> SuiteResult:
    """Canonical reduction tree leaf census against the flow counts at the
    shifted netflows: for each dominant composition j there must be exactly
    count(j - out, 0) leaves of shape j+1.  One instance per graph; the
    census comes from the interned tree (tree_census)."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        expected = {j: k for j in terms.compositions if (k := terms.shifted_count(j))}
        census = tree_census(graph, node_cap=node_cap)
        yield None if census == expected else {
            "census": {str(k): v for k, v in census.items()},
            "expected": {str(k): v for k, v in expected.items()}}

    return _run_family("census (reduction-tree leaves)", max_vertices, max_edges, instances)


def run_dissection_suite(
    max_vertices: int = 5, max_edges: int = 6, max_c: int = 3, *, node_cap: int = DEFAULT_NODE_CAP
) -> SuiteResult:
    """Tiling certificates (full dissection reports) plus the cell-count formula
    sum_j prod_i multiset_coeff(c_i, j_i) * count(j - out, 0)."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        box = _box(graph, 1, max_c)
        # the certificate counts with a counter of its own for checks (c) and
        # (d), never terms.counter, which gives the expected cell count
        for checks, expected_cells in zip(certify_dissection_box(graph, box, node_cap=node_cap),
                                          terms.c_form_counts(box)):
            yield None if checks.passed and checks.cells == expected_cells else {
                "c": list(checks.c), "cells": checks.cells, "expected_cells": expected_cells,
                "report": checks.report().to_json()}

    return _run_family("dissection (unimodular cells)", max_vertices, max_edges, instances)


def run_in_vector_suite(max_vertices: int = 5, max_edges: int = 6, max_c: int = 3) -> SuiteResult:
    """Restriction bijection between flows of the graph and of its
    source-augmented form, over c with entries 1..max_c."""

    def instances(graph):
        for c in product(*_box(graph, 1, max_c)):
            report = verify_in_vector_bijection(graph, c)
            yield None if report.passed else {"c": list(c), "report": report.to_json()}

    return _run_family("in-vector (restriction bijection)", max_vertices, max_edges, instances)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "eq2": run_eq2_suite,
    "eq1": run_eq1_suite,
    "thm41": run_thm41_suite,
    "census": run_census_suite,
    "dissection": run_dissection_suite,
    "in-vector": run_in_vector_suite,
}
