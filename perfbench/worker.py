"""One measured pass over a workload plan, in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_NS < request.json

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
interpreter.  The request is a plan from workloads.py plus "workdir" (where
graph files go), "trace" (wrap flowpoly's public functions while the body
runs) and "setup_only" (stop after set-up).  flowpoly keeps caches for the
life of a process, so every measured pass needs its own interpreter.

The last line of stdout is one JSON object: setup_s (spawn to the first
timed call), wall_s (the whole body, anchor checks included), instances,
failed, failures, answers (one digest per task, to compare runs), maxrss_kb
and, when traced, layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

SUITE_LINE = re.compile(r"(PASS|FAIL) [^:]+: (\d+) instances(?:, (\d+) failures)?")
COUNT_LINE = re.compile(r"\s+(?:leaf \d+ )?composition \([\d, ]*\): (\d+)(?: cells)?")
DOT_NODE = re.compile(r"\s+(n\d+) \[label=")
DOT_ARC = re.compile(r"\s+(n\d+) -> n\d+ ")


def check_cli(task: dict, rc: int, out: str) -> tuple[str, int] | None:
    """None when the output of a cli task matches its anchor, else the
    reason it does not and how many of its instances failed."""
    whole = task["instances"]
    if rc != 0:
        return f"exit code {rc}", whole
    expect = int(task["expect"])
    lines = out.splitlines()
    check = task["check"]
    if check == "suite":
        found = [m for m in map(SUITE_LINE.fullmatch, lines) if m]
        if len(found) != 1:
            return f"expected one suite summary line, got {len(found)}", whole
        status, instances, failures = found[0].groups()
        if int(instances) != expect:
            return f"suite ran {instances} instances, expected {expect}", whole
        if status != "PASS":
            return f"suite reported {failures} failures", int(failures or whole)
        return None
    if check in ("cells", "leaves"):
        head = f"{check}: "
        if not lines or not lines[0].startswith(head):
            return f"missing '{head}' line", whole
        total = int(lines[0][len(head):])
        parts = [m.group(1) for m in map(COUNT_LINE.fullmatch, lines[1:]) if m]
        if len(parts) != len(lines) - 1 or sum(map(int, parts)) != total:
            return f"per-leaf lines do not add up to {total}", whole
        return None if total == expect else (f"{check} {total}, expected {expect}", whole)
    if check == "dot_leaves":
        nodes = {m.group(1) for m in map(DOT_NODE.match, lines) if m}
        inner = {m.group(1) for m in map(DOT_ARC.match, lines) if m}
        leaves = len(nodes - inner)
        return None if leaves == expect else (f"{leaves} leaves, expected {expect}", whole)
    raise ValueError(f"unknown check {check!r}")


def run_task(flowpoly, task: dict, argv: list[str] | None) -> tuple[str, tuple[str, int] | None]:
    """Run one task; return its answer digest and, if it missed its anchor,
    the reason and the number of failed instances."""
    if task["op"] == "cli":
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = flowpoly.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        out = buf.getvalue()
        answer = f"{rc}:{hashlib.sha256(out.encode()).hexdigest()}"
        return answer, check_cli(task, rc, out)
    graph = flowpoly.DirectedMultigraph(task["graph"]["vertices"], tuple(map(tuple, task["graph"]["edges"])))
    if task["op"] == "volume":
        value = flowpoly.lidskii_volume(graph, task["netflow"])
    elif task["op"] == "count":
        value = flowpoly.count_flows(flowpoly.FlowInstance(graph, task["netflow"]))
    else:
        raise ValueError(f"unknown op {task['op']!r}")
    answer = str(value)
    if answer != task["expect"]:
        return answer, (f"got {answer}, expected {task['expect']}", task["instances"])
    return answer, None


def main() -> int:
    spawn_ns = int(sys.argv[1])
    request = json.load(sys.stdin)
    tasks = request["tasks"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    import flowpoly

    if not os.path.abspath(flowpoly.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported flowpoly from {flowpoly.__file__}, not from {src}")
    if any(task["op"] == "cli" for task in tasks):
        import flowpoly.cli
    paths = {}
    for name, g in request["graph_files"].items():
        paths[name] = os.path.join(request["workdir"], name)
        graph = flowpoly.DirectedMultigraph(g["vertices"], tuple(map(tuple, g["edges"])))
        flowpoly.write_graph(graph, paths[name])
    argvs = [[paths.get(arg, arg) for arg in task["argv"]] if task["op"] == "cli" else None
             for task in tasks]
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if not request["setup_only"]:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        failures = []
        answers = {}
        instances = failed = 0
        start = time.perf_counter()
        for task, argv in zip(tasks, argvs):
            try:
                answer, miss = run_task(flowpoly, task, argv)
            except Exception as exc:  # a raising task counts as failed; the others still run
                answer, miss = "raised", (f"{type(exc).__name__}: {exc}", task["instances"])
            answers[task["id"]] = answer
            instances += task["instances"]
            if miss is not None:
                failed += miss[1]
                failures.append({"task": task["id"], "reason": miss[0], "failed": miss[1]})
        wall_s = time.perf_counter() - start
        result.update(wall_s=wall_s, instances=instances, failed=failed, failures=failures,
                      answers=answers)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
