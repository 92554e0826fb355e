"""Command-line front end.

Subcommands:
  kostant   exact flow count for a graph and netflow
  ehrhart   exact Ehrhart polynomial coefficients
  lidskii   closed-form volume / count / c-form evaluators
  reduce    canonical reduction tree: census, JSON, or DOT
  dissect   unimodular dissection cells or summary
  verify    exhaustive identity suites over a generated family

Netflows may be given in full or without the sink entry, which is then
inferred as minus the sum.  All output is exact: integers in decimal,
rationals as p/q.  A library error (bad input, a node cap, the recursion
limit, a failed fork, a verify worker that dies) prints one `error: ...`
line on stderr and exits with code 1; a reader that closes the output early
ends the command quietly with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .kostant import FlowInstance, count_flows, ehrhart_polynomial
from .lidskii import lidskii_count, lidskii_count_c_form, lidskii_volume
from .multigraph import DirectedMultigraph, GraphFormatError, NetflowVector, read_graph
from .reduction import (
    DEFAULT_NODE_CAP,
    LeafShapeError,
    NodeCapExceeded,
    census_to_json,
    dissection_cell_counts,
    dot_lines,
    iter_dissection_cells,
    tree_census,
)
from .verify import SUITES


def _node_cap(flag: str | None) -> int:
    """The --node-cap flag, else the library default; a positive integer."""
    if flag is None:
        return DEFAULT_NODE_CAP
    try:
        cap = int(flag)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"--node-cap={flag!r} is not a positive integer")
    return cap


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r}; expected comma-separated integers")


def _netflow_for(graph: DirectedMultigraph, text: str) -> NetflowVector:
    entries = _parse_int_list(text, "netflow")
    nv = graph.vertex_count
    if len(entries) == nv:
        return NetflowVector(entries)
    if len(entries) == nv - 1:
        return NetflowVector.completing(entries)
    raise ValueError(
        f"netflow needs {nv} entries (or {nv - 1} with the sink inferred), got {len(entries)}"
    )


def _load_graph(path: str) -> DirectedMultigraph:
    try:
        return read_graph(path)
    except OSError as exc:
        raise ValueError(f"cannot read graph file {path}: {exc.strerror}") from exc
    except GraphFormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "emit", "human") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_kostant(args) -> int:
    graph = _load_graph(args.graph)
    netflow = _netflow_for(graph, args.netflow)
    value = count_flows(FlowInstance(graph, netflow))
    _emit(args, {"count": value, "netflow": list(netflow.entries)}, str(value))
    return 0


def cmd_ehrhart(args) -> int:
    graph = _load_graph(args.graph)
    netflow = _netflow_for(graph, args.netflow)
    poly = ehrhart_polynomial(FlowInstance(graph, netflow))
    strings = poly.coefficient_strings()
    _emit(args, {"coefficients": strings}, ", ".join(strings) if strings else "0")
    return 0


def cmd_lidskii(args) -> int:
    graph = _load_graph(args.graph)
    if args.mode == "c-form":
        if args.c is None:
            raise ValueError("--mode c-form requires --c")
        value = lidskii_count_c_form(graph, _parse_int_list(args.c, "c"))
    else:
        if args.netflow is None:
            raise ValueError(f"--mode {args.mode} requires --netflow")
        netflow = _netflow_for(graph, args.netflow)
        fn = lidskii_volume if args.mode == "volume" else lidskii_count
        value = fn(graph, netflow)
    _emit(args, {"mode": args.mode, "value": value}, str(value))
    return 0


def cmd_reduce(args) -> int:
    graph = _load_graph(args.graph)
    c = _parse_int_list(args.c, "c") if args.c is not None else None
    if args.emit == "dot":
        # the walk ends before the first line, so a node cap prints nothing
        sys.stdout.writelines(dot_lines(graph, c, node_cap=args.node_cap))
        return 0
    census = tree_census(graph, c, node_cap=args.node_cap)
    if args.emit == "json":
        print(json.dumps({
            "leaf_count": sum(census.values()),
            "census": census_to_json(census),
        }, indent=2, sort_keys=True))
        return 0
    print(f"leaves: {sum(census.values())}")
    for j, count in census.items():
        print(f"  composition {j}: {count}")
    return 0


def _json_list(items: Sequence[str], pad: str) -> str:
    """A JSON list of already encoded items as json.dumps(indent=2) lays it
    out when its opening line is indented by pad."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _cell_json(cell, vertex_json: dict) -> str:
    """json.dumps({"leaf", "leaf_composition", "vertices"} of the cell,
    indent=2, sort_keys=True) as an item of a list indented by 2, written
    directly: with indent, json.dumps falls back to its pure-Python encoder,
    which would take most of the time of `dissect --emit cells`.  Cells
    share few distinct vertices, so vertex_json keeps each one's text."""
    texts = []
    for v in cell.vertices:
        text = vertex_json.get(v)
        if text is None:
            text = vertex_json[v] = _json_list(list(map(str, v)), "      ")
        texts.append(text)
    composition = _json_list([str(j) for j in cell.leaf_composition], "    ")
    vertices = _json_list(texts, "    ")
    return (
        f'{{\n    "leaf": {cell.leaf_index},\n    "leaf_composition": {composition},'
        f'\n    "vertices": {vertices}\n  }}'
    )


def cmd_dissect(args) -> int:
    graph = _load_graph(args.graph)
    c = _parse_int_list(args.c, "c")
    if args.emit == "cells":
        # the node budget is spent before the first cell, so an error prints
        # nothing; the JSON list is written one cell at a time
        separator = "[\n  "
        vertex_json: dict[tuple[int, ...], str] = {}
        for cell in iter_dissection_cells(graph, c, node_cap=args.node_cap):
            sys.stdout.write(separator + _cell_json(cell, vertex_json))
            separator = ",\n  "
        sys.stdout.write("[]\n" if separator == "[\n  " else "\n]\n")
        return 0
    # the summary counts the cells of each leaf shape without building them
    counts = dissection_cell_counts(graph, c, node_cap=args.node_cap)
    print(f"cells: {sum(cells for _, _, cells in counts)}")
    for leaf, comp, cells in counts:
        print(f"  leaf {leaf} composition {comp}: {cells} cells")
    return 0


# The arguments each verify suite takes besides the family bounds; --max-netflow
# bounds the netflow entries or the c entries.
SUITE_ARGS = {
    "eq2": lambda a: {"max_netflow": a.max_netflow},
    "eq1": lambda a: {"max_netflow": a.max_netflow},
    "thm41": lambda a: {"max_c": a.max_netflow},
    "census": lambda a: {"node_cap": a.node_cap},
    "dissection": lambda a: {"max_c": a.max_netflow, "node_cap": a.node_cap},
    "in-vector": lambda a: {"max_c": a.max_netflow},
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    any_instances = 0
    for name in names:
        result = SUITES[name](max_vertices=args.max_vertices, max_edges=args.max_edges,
                              **SUITE_ARGS[name](args))
        any_instances += result.instances
        print(result.summary())
        for failure in result.failures[:3]:
            print(f"  counterexample: {json.dumps(failure, sort_keys=True)}")
        all_passed = all_passed and result.passed
    if any_instances == 0:
        print("warning: 0 instances in the selected family bounds")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpoly",
        description="Exact volumes, lattice-point counts, reduction trees and "
        "unimodular dissections of flow polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kostant", help="count integer flows")
    p.add_argument("--graph", required=True)
    p.add_argument("--netflow", required=True)
    p.add_argument("--emit", choices=["human", "json"], default="human")
    p.set_defaults(fn=cmd_kostant)

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial coefficients, low degree first")
    p.add_argument("--graph", required=True)
    p.add_argument("--netflow", required=True)
    p.add_argument("--emit", choices=["human", "json"], default="human")
    p.set_defaults(fn=cmd_ehrhart)

    p = sub.add_parser("lidskii", help="closed-form volume / count evaluators")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["volume", "count", "c-form"], required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--netflow")
    group.add_argument("--c")
    p.add_argument("--emit", choices=["human", "json"], default="human")
    p.set_defaults(fn=cmd_lidskii)

    p = sub.add_parser("reduce", help="canonical reduction tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", help="attach a source with these edge multiplicities first")
    p.add_argument("--emit", choices=["census", "json", "dot"], default="census")
    p.add_argument("--node-cap")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("dissect", help="unimodular dissection of the augmented polytope")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--emit", choices=["summary", "cells"], default="summary")
    p.add_argument("--node-cap")
    p.set_defaults(fn=cmd_dissect)

    p = sub.add_parser("verify", help="exhaustive identity suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument("--max-netflow", type=int, default=2)
    p.add_argument("--node-cap")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "node_cap" in vars(args):
            args.node_cap = _node_cap(args.node_cap)
        code = args.fn(args)
        print(end="", flush=True)  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit writes what is left nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except RecursionError as exc:
        print(f"error: input too deep for the recursion limit ({exc})", file=sys.stderr)
    except (ArithmeticError, LeafShapeError, NodeCapExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
