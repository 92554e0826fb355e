"""Workload plans: the inputs each workload hands to flowpoly, in an order
drawn from the seed, each with the answer it must reproduce.

Every expected answer comes from a closed form or from an enumeration
written here, never from flowpoly's own counter, because the formula side
and the oracle side of flowpoly share that counter and a bug in it could
hide on both sides at once.

A plan is plain JSON so it can be handed to a fresh interpreter:

    {"workload": name, "seed": n, "graph_files": {file name: graph},
     "tasks": [task, ...]}

A graph is {"vertices": k, "edges": [[tail, head], ...]}.  A task is one of

    {"op": "volume", "graph", "netflow"}   flowpoly.lidskii_volume
    {"op": "count", "graph", "netflow"}    flowpoly.count_flows
    {"op": "cli", "argv", "check"}         flowpoly.cli.main(argv)

plus "id", "expect" (the anchor) and "instances" (how many verified
instances the task stands for).  A cli task's "check" names how its output
is read: "suite" (one PASS line with the instance count), "cells" (the
dissect summary), "leaves" (the reduce census) or "dot_leaves" (leaf boxes
of the reduce DOT tree).  Graph file arguments are bare file names; the
worker writes the files and substitutes their paths.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb, factorial, prod

WORKLOADS = ("ladder", "family", "reduction")
DEFAULT_SEED = 1

# Largest supply + max|entry| that the counter's 16-bit packed state holds
# at the commit this benchmark was defined on; wide rungs sit above it.
PACK_LIMIT = 32766


# --- closed forms and enumerations that do not use flowpoly ----------------


def catalan(i: int) -> int:
    return comb(2 * i, i) // (i + 1)


def catalan_product(k: int) -> int:
    """prod_{i=1}^{k} Cat(i)."""
    return prod(catalan(i) for i in range(1, k + 1))


def cry_volume(nv: int) -> int:
    """Normalized volume of the flow polytope of the complete graph on nv
    vertices at netflow (1, 0, ..., 0, -1), the Chan-Robbins-Yuen polytope:
    prod_{i=1}^{nv-3} Cat(i) (Zeilberger 1999).  The same number counts the
    integer flows of the complete graph on nv-2 vertices at netflow
    (1, 2, ..., nv-3, -sum) and the leaves of the canonical reduction tree
    of the complete graph on nv-1 vertices."""
    return catalan_product(nv - 3)


def tesler_volume(nv: int) -> int:
    """Normalized volume of the flow polytope of the complete graph on nv
    vertices at netflow (1, ..., 1, -(nv-1)), the Tesler polytope:
    C(N)! 2^C(N) / prod_{i=1}^{N} i! with N = nv-1 and C(N) = N choose 2
    (Meszaros-Morales-Rhoades)."""
    n = nv - 1
    c = comb(n, 2)
    return factorial(c) * 2**c // prod(factorial(i) for i in range(1, n + 1))


def three_vertex_count(mults: tuple[int, int, int], p: int, q: int) -> int:
    """Integer flows on the graph with mults[0] edges 1->2, mults[1] edges
    1->3 and mults[2] edges 2->3 at netflow (p, q, -p-q), by the direct sum
    over the flow x that vertex 1 sends to vertex 2."""
    m12, m13, m23 = mults
    return sum(
        comb(x + m12 - 1, m12 - 1) * comb(p - x + m13 - 1, m13 - 1) * comb(x + q + m23 - 1, m23 - 1)
        for x in range(p + 1)
    )


def family_graph_counts(max_vertices: int, max_edges: int, mult_cap: int = 2) -> dict[int, int]:
    """Number of graphs per vertex count in the verify family: multiplicity
    at most mult_cap per pair, nv-1 to max_edges edges, an out-edge at every
    non-sink vertex, connected."""
    counts = {}
    for nv in range(3, max_vertices + 1):
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        found = 0
        for mults in product(range(mult_cap + 1), repeat=len(pairs)):
            if not nv - 1 <= sum(mults) <= max_edges:
                continue
            used = [pair for pair, k in zip(pairs, mults) if k]
            if {i for i, _ in used} != set(range(nv - 1)):
                continue
            root = list(range(nv))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for i, j in used:
                root[find(i)] = find(j)
            if len({find(v) for v in range(nv)}) == 1:
                found += 1
        counts[nv] = found
    return counts


def suite_instances(suite: str, max_vertices: int, max_edges: int, max_netflow: int) -> int:
    """Instances a verify suite runs: one per family graph and netflow (eq2:
    entries 0..max_netflow; eq1: 1..max_netflow) or c vector (thm41 and
    dissection: entries 1..max_netflow) on its non-sink vertices."""
    choices = max_netflow + 1 if suite == "eq2" else max_netflow
    return sum(
        graphs * choices ** (nv - 1)
        for nv, graphs in family_graph_counts(max_vertices, max_edges).items()
    )


# --- task constructors -------------------------------------------------------


def complete_graph(nv: int) -> dict:
    return {"vertices": nv, "edges": [[i, j] for i in range(1, nv + 1) for j in range(i + 1, nv + 1)]}


def _graph_file(nv: int) -> str:
    return f"k{nv}.graph"


def cry_task(nv: int) -> dict:
    netflow = [1] + [0] * (nv - 2) + [-1]
    return {"id": f"cry-K{nv}", "op": "volume", "graph": complete_graph(nv), "netflow": netflow,
            "expect": str(cry_volume(nv)), "instances": 1}


def tesler_task(nv: int) -> dict:
    netflow = [1] * (nv - 1) + [-(nv - 1)]
    return {"id": f"tesler-K{nv}", "op": "volume", "graph": complete_graph(nv), "netflow": netflow,
            "expect": str(tesler_volume(nv)), "instances": 1}


def wide_task(index: int, mults: tuple[int, int, int], p: int, q: int) -> dict:
    if 2 * (p + q) < PACK_LIMIT:
        raise ValueError(f"netflow ({p}, {q}) is below the pack limit")
    edges = [[1, 2]] * mults[0] + [[1, 3]] * mults[1] + [[2, 3]] * mults[2]
    return {"id": f"wide-{index}", "op": "count", "graph": {"vertices": 3, "edges": edges},
            "netflow": [p, q, -p - q], "expect": str(three_vertex_count(mults, p, q)),
            "instances": 1}


def suite_task(suite: str, max_vertices: int, max_edges: int, max_netflow: int) -> dict:
    instances = suite_instances(suite, max_vertices, max_edges, max_netflow)
    return {"id": f"{suite}-{max_vertices}.{max_edges}.{max_netflow}", "op": "cli",
            "argv": ["verify", "--suite", suite, "--max-vertices", str(max_vertices),
                     "--max-edges", str(max_edges), "--max-netflow", str(max_netflow)],
            "check": "suite", "expect": str(instances), "instances": instances}


def dissect_task(nv: int) -> dict:
    """c = (2, ..., 2) gives netflow indeg - 1 + c = (1, 2, ..., nv-1), whose
    flow count, and so the cell count, is cry_volume(nv + 2)."""
    return {"id": f"dissect-K{nv}", "op": "cli",
            "argv": ["dissect", "--graph", _graph_file(nv), "--c", ",".join(["2"] * (nv - 1)),
                     "--emit", "summary"],
            "check": "cells", "expect": str(cry_volume(nv + 2)), "instances": 1}


def census_task(nv: int) -> dict:
    """Leaf walk of the canonical reduction tree, streamed."""
    return {"id": f"census-K{nv}", "op": "cli",
            "argv": ["reduce", "--graph", _graph_file(nv), "--emit", "census"],
            "check": "leaves", "expect": str(cry_volume(nv + 1)), "instances": 1}


def dot_task(nv: int) -> dict:
    """The materialized canonical reduction tree, rendered as DOT."""
    return {"id": f"dot-K{nv}", "op": "cli",
            "argv": ["reduce", "--graph", _graph_file(nv), "--emit", "dot"],
            "check": "dot_leaves", "expect": str(cry_volume(nv + 1)), "instances": 1}


def make_plan(workload: str, seed: int, tasks: list[dict]) -> dict:
    graph_files = {}
    for task in tasks:
        for arg in task.get("argv", ()):
            if arg.endswith(".graph"):
                graph_files[arg] = complete_graph(int(arg[1:-len(".graph")]))
    return {"workload": workload, "seed": seed, "graph_files": graph_files, "tasks": tasks}


# --- the workloads ---------------------------------------------------------

# Multiplicities of the wide rungs' three-vertex graphs; the seed picks
# their netflows.
WIDE_MULTS = ((2, 2, 2), (1, 2, 3), (3, 2, 1), (2, 1, 2), (2, 3, 2))


def build(workload: str, seed: int = DEFAULT_SEED) -> dict:
    """The plan of one workload.  The seed picks the wide-rung netflows;
    pass_tasks() draws each pass's task order from it."""
    rng = random.Random(seed)
    if workload == "ladder":
        tasks = [cry_task(nv) for nv in range(4, 9)] + [tesler_task(nv) for nv in range(4, 9)]
        for index, mults in enumerate(WIDE_MULTS):
            q = rng.randrange(0, 64)
            p = rng.randrange(PACK_LIMIT // 2 + 1, PACK_LIMIT // 2 + 1000) - q
            tasks.append(wide_task(index, mults, p, q))
    elif workload == "family":
        tasks = [suite_task(suite, *box) for suite in ("eq2", "eq1", "thm41")
                 for box in ((5, 5, 2), (5, 6, 1))]
    elif workload == "reduction":
        tasks = [suite_task("dissection", 4, 5, 2), dissect_task(6), census_task(7), dot_task(7)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return make_plan(workload, seed, tasks)


def pass_tasks(plan: dict, index: int) -> list[dict]:
    """The tasks of pass `index` in an order drawn from the plan's seed.
    The order decides which task fills flowpoly's process-wide caches
    first; a new order every pass keeps one order from deciding a run's
    median, and keeps a change tuned to one order from showing a gain."""
    tasks = list(plan["tasks"])
    random.Random(f"{plan['seed']}/{index}").shuffle(tasks)
    return tasks
