"""flowpoly benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from any directory; flowpoly is imported from the src/ directory next
to perfbench/.  Each measured pass of a workload runs in a fresh interpreter
(worker.py), because flowpoly keeps caches for the life of a process and a
warm rerun measures a different program.  Passes repeat until --seconds is
used up.  Between passes the harness starts interpreters that only do the
set-up, to sample setup_s often enough for a steady median.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics of BENCHMARK.json; with --trace 1, traced and untraced
passes alternate and the result holds the per-layer metrics, including
trace_overhead_frac, the traced median wall time over the untraced one,
minus one.  The line before it records the seed, the task order of every
pass, the pass counts, the Python version and the number of usable CPUs.
Every answer is checked against its anchor; a run with a wrong answer
reports correct: false and exits 1.  --workload all runs every workload and
prints a table with failed_frac beside the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker interpreter crashed or printed no result."""


def spawn(request: dict, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    payload = json.dumps({**request, "trace": trace, "setup_only": setup_only})
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spawn_ns)], input=payload, capture_output=True,
        text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(plan: dict, seconds: float, trace: bool) -> dict:
    """Repeat rounds until the next round would end after `seconds`; always
    at least one round.  A round is a set-up-only interpreter, a pass and,
    with trace, a traced pass; round k runs the tasks in the order
    pass_tasks(plan, k)."""
    setups, passes, traced, orders = [], [], [], []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        request = {**plan, "workdir": workdir}
        spawn(request, setup_only=True)  # warm-up: writes bytecode caches, not measured
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            request["tasks"] = workloads.pass_tasks(plan, len(passes))
            orders.append([task["id"] for task in request["tasks"]])
            setups.append(spawn(request, setup_only=True)["setup_s"])
            result = spawn(request)
            setups.append(result["setup_s"])
            passes.append(result)
            if trace:
                traced.append(spawn(request, trace=True))
            now = time.monotonic()
            if now - start + (now - round_start) > seconds:
                break
    return {"setups": setups, "passes": passes, "traced": traced, "orders": orders}


def end_to_end_metrics(run: dict) -> dict[str, float]:
    passes = run["passes"]
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "instances_per_s": median(p["instances"] / p["wall_s"] for p in passes),
        "setup_s": median(run["setups"]),
        "peak_rss_mb": median(p["maxrss_kb"] / 1024 for p in passes),
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    traced = run["traced"]
    out = {name: median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    untraced_wall = median(p["wall_s"] for p in run["passes"])
    out["trace_overhead_frac"] = median(p["wall_s"] for p in traced) / untraced_wall - 1
    return out


def tally(run: dict) -> tuple[int, int, list[dict]]:
    """Instances attempted, instances failed and failure records over every pass."""
    every = run["passes"] + run["traced"]
    return (sum(p["instances"] for p in every), sum(p["failed"] for p in every),
            [f for p in every for f in p["failures"]])


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; return (result line, run record)."""
    plan = workloads.build(workload, seed)
    run = measure(plan, seconds, trace)
    values = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted, failed, failures = tally(run)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "passes": len(run["passes"]), "traced_passes": len(run["traced"]),
        "setup_samples": len(run["setups"]), "orders": run["orders"],
        "failures": failures[:10],
    }
    return result, record


def print_table(rows: list[tuple[str, str, float, str]]) -> None:
    print(f"{'workload':<10} {'metric':<16} {'value':>14}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<10} {name:<16} {value:>14.6g}  {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowpoly" / "__init__.py").is_file():
        print(f"error: no flowpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    all_correct = True
    for name in names:
        try:
            result, record = run_one(name, args.seed, args.seconds, bool(args.trace), spec)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        all_correct = all_correct and result["correct"]
        for failure in record["failures"]:
            print(f"{name}: {failure['task']}: {failure['reason']}", file=sys.stderr)
        print(json.dumps(record))
        if args.workload != "all":
            print(json.dumps(result))
            continue
        rows += [(name, metric, v["value"], v["unit"]) for metric, v in result["metrics"].items()]
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
    if args.workload == "all":
        print_table(rows)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
