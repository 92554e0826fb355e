"""Exhaustive identity checks over generated graph families.

The family for a given bound is every connected multigraph on 3 up to
max_vertices vertices with at most max_edges edges, per-pair multiplicity
at most mult_cap, and at least one outgoing edge at every non-sink vertex.
One family walk, _run_family, serves every suite: it counts the
instances and collects the counterexamples.  A suite gives it a title
and, per graph, a generator over its parameter box that compares a
closed-form evaluator against the brute-force counter (or runs the full
dissection reports) and yields None for a passing instance or the
counterexample's fields.  The formula side keeps one LidskiiTerms per
graph, so the graph checks, the dominant compositions and the shifted
counts are done once per graph rather than once per instance.

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

from .geometry import verify_dissection, verify_in_vector_bijection
from .kostant import FlowInstance, normalized_volume_oracle
from .lidskii import LidskiiTerms
# the evaluators stay importable from this module
from .lidskii import lidskii_count, lidskii_count_c_form, lidskii_volume  # noqa: F401
from .multigraph import DirectedMultigraph, NetflowVector, degree_stats
from .reduction import DEFAULT_NODE_CAP, iter_reduction_leaves, leaf_census


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


def _box(graph: DirectedMultigraph, low: int, high: int):
    """Every vector of graph.vertex_count - 1 entries in low..high."""
    return product(range(low, high + 1), repeat=graph.vertex_count - 1)


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
            pid = os.fork()
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
                raise RuntimeError(
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


def run_eq2_suite(
    max_vertices: int = 5, max_edges: int = 8, max_netflow: int = 3, *, corrupt: bool = False
) -> SuiteResult:
    """Closed-form lattice-point count against the brute-force count, over
    every nice-chamber netflow with entries 0..max_netflow."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        for head in _box(graph, 0, max_netflow):
            a = NetflowVector.completing(head)
            formula = terms.count(a) + int(corrupt)
            direct = terms.counter.count(a)
            yield None if formula == direct else {
                "netflow": list(a.entries), "formula": formula, "count": direct}

    return _run_family("eq2 (lattice-point formula)", max_vertices, max_edges, instances)


def run_eq1_suite(
    max_vertices: int = 5, max_edges: int = 8, max_netflow: int = 3, *, corrupt: bool = False
) -> SuiteResult:
    """Closed-form volume against the volume from the Ehrhart difference
    table, over strictly positive netflows with entries 1..max_netflow."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        for head in _box(graph, 1, max_netflow):
            a = NetflowVector.completing(head)
            formula = terms.volume(a) + int(corrupt)
            oracle = normalized_volume_oracle(FlowInstance(graph, a), counter=terms.counter)
            yield None if formula == oracle else {
                "netflow": list(a.entries), "formula": formula, "volume": oracle}

    return _run_family("eq1 (volume formula)", max_vertices, max_edges, instances)


def run_thm41_suite(
    max_vertices: int = 5, max_edges: int = 8, max_c: int = 3, *, corrupt: bool = False
) -> SuiteResult:
    """Rising-factorial form of the count formula against the brute-force
    count at netflow indeg-1+c, over c with entries 1..max_c."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        # the oracle's netflows indeg-1+c, from the graph's own degree counts
        in_shift = degree_stats(graph).in_shift
        for c in _box(graph, 1, max_c):
            formula = terms.count_c_form(c) + int(corrupt)
            netflow = NetflowVector.completing([i + ci for i, ci in zip(in_shift, c)])
            direct = terms.counter.count(netflow)
            yield None if formula == direct else {
                "c": list(c), "formula": formula, "count": direct}

    return _run_family("thm41 (c-form count formula)", max_vertices, max_edges, instances)


def run_census_suite(
    max_vertices: int = 5, max_edges: int = 7, *, node_cap: int = DEFAULT_NODE_CAP
) -> SuiteResult:
    """Canonical reduction tree leaf census against the flow counts at the
    shifted netflows: for each dominant composition j there must be exactly
    count(j - out, 0) leaves of shape j+1.  One instance per graph; the
    leaves are streamed, not kept in a tree."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        expected = {j: k for j in terms.compositions if (k := terms.shifted_count(j))}
        census = leaf_census(iter_reduction_leaves(graph, node_cap=node_cap))
        yield None if census == expected else {
            "census": {str(k): v for k, v in census.items()},
            "expected": {str(k): v for k, v in expected.items()}}

    return _run_family("census (reduction-tree leaves)", max_vertices, max_edges, instances)


def run_dissection_suite(
    max_vertices: int = 5,
    max_edges: int = 6,
    max_c: int = 3,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    debug_pairwise: bool = False,
) -> SuiteResult:
    """Full dissection reports plus the cell-count formula
    sum_j prod_i multiset_coeff(c_i, j_i) * count(j - out, 0)."""

    def instances(graph):
        terms = LidskiiTerms(graph)
        for c in _box(graph, 1, max_c):
            expected_cells = terms.count_c_form(c)
            report = verify_dissection(graph, c, node_cap=node_cap, debug_pairwise=debug_pairwise)
            cell_count = next(
                ch.details["cells"] for ch in report.checks if ch.name == "cell_count_equals_flow_count"
            )
            yield None if report.passed and cell_count == expected_cells else {
                "c": list(c), "cells": cell_count, "expected_cells": expected_cells,
                "report": report.to_json()}

    return _run_family("dissection (unimodular cells)", max_vertices, max_edges, instances)


def run_in_vector_suite(max_vertices: int = 5, max_edges: int = 6, max_c: int = 3) -> SuiteResult:
    """Restriction bijection between flows of the graph and of its
    source-augmented form, over c with entries 1..max_c."""

    def instances(graph):
        for c in _box(graph, 1, max_c):
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
