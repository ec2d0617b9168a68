"""Alternating base/head pairs of the benchmark, written to BENCH_<pr>.json.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench_pairs.py --pr N [--pairs 10] [--first-seed 1001]

The committed files of the parent HEAD~1 ("base") and of HEAD ("head")
are exported by `git archive` into a temporary directory, removed at the
end; the checkout itself is only read.  For each workload that
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

Then each research-scale point in RESEARCH (a CLI run that no workload
reaches) takes RESEARCH_PAIRS alternating pairs, each run one fresh
process

    python3 perfbench/child.py SRC 0 ARG...

with each side's own child.py and src/.  Its wall_s (the time of
`divvar.cli.main`) and maxrss_kib (the peak RSS of the process, imports
included) are recorded with the exit code and a hash of stdout, so a
point one side refuses (exit 1) is recorded as such, and whether the
two sides printed the same report.

BENCH_<pr>.json, at the root of the checkout, holds per workload and
side the median and quartiles of every end-to-end metric that
BENCHMARK.json declares and the operations attempted and failed; for
each metric the number of pairs that head won; and every run's result
line and provenance line with the load average before it.  Per research
point and side it holds the exit codes and the median and quartiles of
wall_s and maxrss_kib, and every run.  It also records each side's
commit and the git tree of its src/, nproc and the load average at the
start and the end.
"""

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# The research-scale points: the c < 1 grid at Q = 10^6, c = 1.5 at
# Q = 46416, Q = 10^7 at c < 1, c = 1.03 at Q = 10^6 (every squarefree
# d <= 2Q a row with an n), c = 1.9 at Q = 2000 (every row by FFT, the
# largest known cost of not folding rows on their own) and the k = 8
# secular coefficients at N = 60, each run in fresh processes
RESEARCH = [
    ["variance", "--k", "2", "--q", "1000000", "--c-grid", "0.5,0.7,0.9"],
    ["variance", "--k", "2", "--q", "46416", "--x", "10000000"],
    ["variance", "--k", "2", "--q", "10000000", "--x", "1000000"],
    ["variance", "--k", "2", "--q", "1000000", "--x", "1500000"],
    ["variance", "--k", "2", "--q", "2000", "--x", "1870497"],
    ["rmt", "--k", "8", "--n", "60"],
]
RESEARCH_PAIRS = 5


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


def run_child(tree, argv):
    """One CLI run in a fresh process by `tree`'s perfbench/child.py."""
    load = os.getloadavg()
    out = subprocess.run([sys.executable, "perfbench/child.py", str(tree / "src"), "0", *argv],
                         cwd=tree, capture_output=True, text=True, check=True)
    child = json.loads(out.stdout)
    return {"loadavg": load, "exit_code": child["exit_code"], "wall_s": child["wall_s"],
            "maxrss_kib": child["maxrss_kib"], "stderr": child["stderr"],
            "stdout_sha256": hashlib.sha256(child["stdout"].encode()).hexdigest()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs, metrics):
    """Median and quartiles of each metric over `runs`, and operation counts."""
    out = {"attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs), "metrics": {}}
    for name, unit in metrics.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        out["metrics"][name] = {"unit": unit, **quartiles(values)}
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
        "workloads": {}, "research": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, rev in sides.items():
            archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                                     capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(trees[side])
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
        for argv in RESEARCH:
            pairs = []
            for i in range(RESEARCH_PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_child(trees[side], argv)
                    print(f"{time.strftime('%H:%M:%S')} {' '.join(argv)} pair {i} {side}: "
                          f"exit {pair[side]['exit_code']}, {pair[side]['wall_s']:.3f} s, "
                          f"{pair[side]['maxrss_kib']} KiB", flush=True)
                pairs.append(pair)
            point = {side: {"exit_codes": [p[side]["exit_code"] for p in pairs],
                            "wall_s": quartiles([p[side]["wall_s"] for p in pairs]),
                            "maxrss_kib": quartiles([p[side]["maxrss_kib"] for p in pairs])}
                     for side in sides}
            point["same_stdout"] = [p["base"]["stdout_sha256"] == p["head"]["stdout_sha256"]
                                    for p in pairs]
            report["research"][" ".join(argv)] = {**point, "runs": pairs}
    report["loadavg_end"] = os.getloadavg()
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
