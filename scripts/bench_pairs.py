"""Alternating base/head pairs of the benchmark, written to BENCH_<pr>.json.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench_pairs.py --pr N [--pairs 10] [--first-seed 1001]

The parent HEAD~1 ("base") and HEAD ("head") are checked out into
temporary git worktrees, removed at the end.  For each workload that
BENCHMARK.json declares, alone, N pairs run

    python3 perfbench/run.py --workload W --seed S

once in each worktree, with each side's own perfbench/ and its own run
length (BENCHMARK.json's run_seconds).  A run whose result line reports
a wrong output or a failed operation stops the script, so no median is
taken over wrong outputs (perfbench exits 0 on them for a single
workload).  Pair i uses
seed first_seed + i on both sides, and the side that runs first
alternates from pair to pair, so a box that warms up or slows down over
time favours neither.  A workload runs alone because under
`--workload all` cache-k3's peak RSS is that of the benchmark process.

BENCH_<pr>.json, at the root of the checkout, holds per workload and
side the median and quartiles of every end-to-end metric that
BENCHMARK.json declares and the operations attempted and failed; for
each metric the number of pairs that head won; and every run's result
line and provenance line with the load average before it.  It also
records each side's commit and the git tree of its src/, nproc and the
load average at the start and the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, workload, seed):
    """perfbench's result and provenance lines for one correct run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    load = os.getloadavg()
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = provenance = None
    for line in out.stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode} "
                           f"without a result line:\n{out.stdout}\n{out.stderr}")
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: correct={result['correct']}, "
                           f"{result['failed']} operations failed:\n{out.stdout}")
    return {"seed": seed, "loadavg": load, "exit_code": out.returncode,
            "result": result, "provenance": provenance}


def summary(runs, metrics):
    """Median and quartiles of each metric over `runs`, and operation counts."""
    out = {"attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs), "metrics": {}}
    for name, unit in metrics.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["metrics"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
    return out


def head_wins(pairs, better):
    """For each metric, the number of pairs in which head beat base."""
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        wins[name] = sum(
            sign * (p["base"]["result"]["metrics"][name]["value"]
                    - p["head"]["result"]["metrics"][name]["value"]) > 0
            for p in pairs
            if name in p["base"]["result"]["metrics"] and name in p["head"]["result"]["metrics"])
    return wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1001)
    args = parser.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": git("rev-parse", "HEAD~1", cwd=root),
             "head": git("rev-parse", "HEAD", cwd=root)}
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S",
        "base": sides["base"], "head": sides["head"],
        "src_trees": {side: git("rev-parse", f"{rev}:src", cwd=root) for side, rev in sides.items()},
        "pairs": args.pairs,
        "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        try:
            for side, rev in sides.items():
                git("worktree", "add", "--detach", str(trees[side]), rev, cwd=root)
            for workload in (w["name"] for w in spec["workloads"]):
                pairs = []
                for i, seed in enumerate(report["seeds"]):
                    order = ("base", "head") if i % 2 == 0 else ("head", "base")
                    pair = {"order": list(order)}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, seed)
                        print(f"{time.strftime('%H:%M:%S')} {workload} pair {i} {side}: "
                              f"{json.dumps(pair[side]['result']['metrics'])}", flush=True)
                    pairs.append(pair)
                report["workloads"][workload] = {
                    "base": summary([p["base"] for p in pairs], metrics),
                    "head": summary([p["head"] for p in pairs], metrics),
                    "head_wins": head_wins(pairs, better),
                    "runs": pairs,
                }
        finally:
            for tree in trees.values():
                if tree.exists():
                    subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                                   cwd=root, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
    report["loadavg_end"] = os.getloadavg()
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
