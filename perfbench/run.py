"""The divvar benchmark: real `divvar` CLI invocations, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep-k2,exact-tables,cache-k3,all}
                             --seed N --seconds S --trace {0,1}

Each invocation runs `divvar.cli.main(argv)` in its own fresh Python
process (`child.py`), one after another from this process, so nothing
memoised in memory carries over between invocations.  One pass runs a
workload's invocations once; passes repeat until the next one would end
after S seconds, and every metric is a median over the passes.  The seed
draws the inputs of each pass from narrow ranges (see NOTES.md).

Every output row is checked by `oracles.py`, which shares no arithmetic
with divvar.  One operation is one expected output row; a missing row, an
`#ERROR` row, a failed check or a non-zero exit fails operations.

With --trace 0 the last line of stdout reports the end-to-end metrics;
with --trace 1 untraced and traced passes alternate and the last line
reports the per-layer metrics of the traced passes.
"""

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does
GOLDEN = (math.sqrt(5) - 1) / 2

# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# divvar's CLI builds both weights as make_bump(1, 2, ...).
PSI = PHI = (1.0, 2.0)
IDENTITY_RTOL = 1e-9


@dataclass
class Call:
    argv: list
    expected_rows: int
    cwd: Path
    result: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    failed_checks: list = field(default_factory=list)

    def parse(self):
        lines = list(csv.reader(self.result.get("stdout", "").splitlines()))
        header = lines[0] if lines else []
        for line in lines[1:]:
            if line and line[0] == "#ERROR":
                self.errors.append(",".join(line[1:]))
            else:
                self.rows.append(dict(zip(header, line)))

    def failed(self):
        """Failed operations: missing, #ERROR and failing rows; an exit code
        other than 0 fails at least one operation even when the rows look
        right."""
        missing = max(self.expected_rows - len(self.rows), 0)
        n = max(missing, len(self.errors)) + len(self.failed_checks)
        if self.result.get("exit_code") != 0:
            n = max(n, 1)
        return min(n, self.expected_rows)


def draw(seed, i, lo, hi, stream):
    """An integer in [lo, hi) for pass i.  The passes of one run follow a
    golden-ratio sequence from a seeded start, so they spread evenly over
    the range and the run's median does not drift with the seed."""
    u0 = random.Random(f"{seed}/{stream}").random()
    return lo + int((hi - lo) * ((u0 + i * GOLDEN) % 1.0))


# ----------------------------------------------------------------------------
# Workloads: each builds one pass of calls and checks their output
# ----------------------------------------------------------------------------

def _variance_xs(Q, grid):
    """The X values `divvar variance` sweeps for a --c-grid."""
    return sorted({max(2, int(round(Q ** float(c)))) for c in grid})


def _check_identity(call):
    for row in call.rows:
        d, a, b = float(row["delta"]), float(row["a_term"]), float(row["b_term"])
        if not abs(d - (a - b)) <= IDENTITY_RTOL * abs(d):
            call.failed_checks.append(f"X={row['X']}: |delta-(A-B)| > 1e-9 delta")


def _check_no_cache(call):
    left = os.listdir(call.cwd)
    if left:
        call.failed_checks.append(f"an invocation without --cache-dir wrote {left}")


def _check_xs(call, xs):
    if [int(r["X"]) for r in call.rows] != xs:
        call.failed_checks.append(f"rows are not the X values {xs}")


class SweepK2:
    """The empirical Delta_2 sweep across the Theorem-1 range; no disk cache."""

    name = "sweep-k2"
    uses_cache = False
    grid = ["0.8", "1.0", "1.2", "1.5", "1.8"]

    def calls(self, seed, i, work):
        self.Q = draw(seed, i, 1000, 1050, "Q")
        argv = ["variance", "--k", "2", "--q", str(self.Q), "--c-grid", ",".join(self.grid)]
        return [Call(argv, len(_variance_xs(self.Q, self.grid)), work / "cwd")]

    def check(self, calls):
        (call,) = calls
        xs = _variance_xs(self.Q, self.grid)
        _check_xs(call, xs)
        _check_identity(call)
        _check_no_cache(call)
        smallest = [r for r in call.rows if int(r["X"]) == xs[0]]
        if smallest:
            want = oracles.delta_direct(2, self.Q, xs[0], PSI, PHI)
            if not oracles.close(float(smallest[0]["delta"]), want, 1e-9):
                call.failed_checks.append(
                    f"X={xs[0]}: delta {smallest[0]['delta']} != direct class sums {want!r}")


class ExactTables:
    """Exact Fraction tables, the Monte-Carlo oracle and the Euler products."""

    name = "exact-tables"
    uses_cache = False

    def calls(self, seed, i, work):
        self.mc_seed = random.Random(f"{seed}/S/{i}").randrange(2**32)
        self.q0 = draw(seed, i, 1000, 100000, "q0")
        cwd = work / "cwd"
        gamma = [Call(["gamma", "--k", str(k)], k + 2, cwd) for k in range(2, 6)]
        # 3 pieces, P_3, the integral and one Monte-Carlo row per default c
        mc = Call(["gamma", "--k", "3", "--samples", "1000000",
                   "--seed", str(self.mc_seed)], 11, cwd)
        rmt = [Call(["rmt", "--k", str(k), "--n", str(n)], k * n + 1 + 5, cwd)
               for k, n in ((2, 40), (3, 30))]
        constants = Call(["constants", "--k", "3", "--prime-limit", "10000000",
                          "--q", str(self.q0)], 3, cwd)
        return gamma + [mc] + rmt + [constants]

    def check(self, calls):
        for call in calls:
            getattr(self, f"_check_{call.argv[0]}")(call)
        _check_no_cache(calls[-1])  # all calls of the pass share one directory

    def _check_gamma(self, call):
        k = int(call.argv[2])
        kinds = defaultdict(list)
        for row in call.rows:
            kinds[row["kind"]].append(row)
        pieces = [[Fraction(t) for t in r["coefficients_or_value"].split()]
                  for r in kinds["gamma_piece"]]
        if len(pieces) != k:
            call.failed_checks.append(f"gamma_{k} has {len(pieces)} pieces")
            return
        total = oracles.gamma_integral(pieces)
        if total != oracles.gamma_mass(k) or any(
                Fraction(r["coefficients_or_value"]) != total for r in kinds["integral"]):
            call.failed_checks.append(f"integral of gamma_{k} != G(k+1)^2/G(2k+1)")
        for j in range(k):
            if not oracles.gamma_mirror_ok(k, pieces, j):
                call.failed_checks.append(f"gamma_{k} piece {j} is not its mirror image")
        for r in kinds["p_poly"]:
            p = [Fraction(t) for t in r["coefficients_or_value"].split()]
            if not oracles.p_poly_ok(k, pieces, p):
                call.failed_checks.append(f"P_{k} != gamma_{k} - c^(k^2-1)/(k^2-1)! on [1,2)")
        for r in kinds["mc_check"]:
            exact = float(oracles.gamma_value(k, pieces, float(r["c"])))
            if not abs(float(r["mc_value"]) - exact) <= 5 * float(r["mc_std_error"]):
                call.failed_checks.append(f"Monte-Carlo gamma_{k}({r['c']}) beyond 5 sigma")

    def _check_rmt(self, call):
        k, n = int(call.argv[2]), int(call.argv[4])
        secular = [int(r["value"]) for r in call.rows if r["kind"] == "secular"]
        if len(secular) != k * n + 1 or sum(secular) != oracles.keating_snaith(k, n):
            call.failed_checks.append(f"sum_m I_{k}(m;{n}) != the Keating-Snaith moment")

    def _check_constants(self, call):
        want = dict(zip(("a_k", "a_tilde_k", "a_k_of_q"),
                        oracles.euler_constants(3, 10**7, self.q0)))
        for row in call.rows:
            if not oracles.close(float(row["value"]), want[row["name"]], 1e-9):
                call.failed_checks.append(f"{row['name']} != closed-form Euler product")


class CacheK3:
    """One cold k=3 sweep against an empty cache directory, then 4 warm ones."""

    name = "cache-k3"
    uses_cache = True
    grid = ["2.5", "2.8"]
    warm_calls = 4

    def calls(self, seed, i, work):
        self.H = draw(seed, i, 500, 1500, "H")
        self.cache = work / "cache"
        argv = ["variance", "--k", "3", "--q", "100", "--c-grid", ",".join(self.grid),
                "--h", str(self.H), "--cache-dir", str(self.cache)]
        rows = len(_variance_xs(100, self.grid))
        return [Call(argv, rows, work / "cwd") for _ in range(1 + self.warm_calls)]

    def check(self, calls):
        xs = _variance_xs(100, self.grid)
        cold = calls[0]
        for call in calls:
            _check_xs(call, xs)
            _check_identity(call)
            if call is not cold and call.result.get("stdout") != cold.result.get("stdout"):
                call.failed_checks.append("warm rows differ from the cold rows")
        want = sorted(f"dk_3_{2 * x + self.H}.bin" for x in xs)
        found = sorted(os.listdir(self.cache)) if self.cache.is_dir() else []
        if found != want:
            calls[-1].failed_checks.append(f"cache holds {found}, expected {want}")
        shutil.rmtree(self.cache, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepK2, ExactTables, CacheK3)}


# ----------------------------------------------------------------------------
# Running calls and passes
# ----------------------------------------------------------------------------

def set_child_env(work):
    """Environment every invocation inherits: BLAS threads capped at nproc,
    and bytecode compiled once into the run's directory, as an installed
    package would have it, whatever the caller's environment says."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(work / "pycache")


def run_call(call, traced, deadline):
    """Run one invocation in a fresh process and wait for it to end."""
    call.cwd.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(CHILD), str(SRC), "1" if traced else "0", *call.argv]
    try:
        proc = subprocess.run(cmd, cwd=call.cwd, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        call.result = json.loads(proc.stdout)
    except subprocess.TimeoutExpired:
        call.result = {"exit_code": None, "stderr": "timed out"}
    except json.JSONDecodeError:
        call.result = {"exit_code": proc.returncode, "stderr": proc.stderr}
    call.parse()


def run_pass(workload, seed, i, traced, work, deadline):
    calls = workload.calls(seed, i, work)
    for call in calls:
        run_call(call, traced, deadline)
        if call.result.get("exit_code") is None:
            break
    try:
        workload.check(calls)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        calls[-1].failed_checks.append(f"output could not be checked: {exc!r}")
    shutil.rmtree(work / "cwd", ignore_errors=True)
    return calls


def end_to_end(workload, passes):
    """End-to-end metrics of a run from its passes.

    Each invocation's time is its median over the passes, and `wall_s` and
    `setup_s` sum those medians.  On a shared machine a core's speed can
    change in phases of seconds to tens of seconds; a phase that slows one
    invocation of one pass then moves the result less than it would move a
    median of pass sums.
    """
    def per_call(key):
        return [statistics.median(calls[j].result.get(key, math.nan) for calls in passes)
                for j in range(len(passes[0]))]

    walls = per_call("wall_s")
    wall = sum(walls)
    warm = [calls[j].result.get("wall_s", math.nan)
            for calls in passes for j in range(1, len(calls))]
    return {
        "wall_s": wall,
        "setup_s": sum(per_call("setup_s")),
        "peak_rss_mib": max(per_call("maxrss_kib")) / 1024,
        # Without a cache every invocation runs cold and none runs warm, so
        # both read as the whole pass there.
        "cold_s": walls[0] if workload.uses_cache else wall,
        "warm_s": statistics.median(warm) if workload.uses_cache else wall,
    }


def per_layer(calls):
    """Per-layer metrics of one traced pass, from its spans."""
    self_s = defaultdict(float)
    count = defaultdict(int)
    attrs = defaultdict(list)
    hits = 0
    for call in calls:
        spans = call.result.get("spans", [])
        for span, s in tracing.self_times(spans):
            self_s[span["name"]] += s
            count[span["name"]] += 1
            if "attrs" in span:
                attrs[span["name"]].append(span["attrs"])
        # a cache hit is a load that the CLI does not follow with a fresh sieve
        for j, span in enumerate(spans):
            if span["name"] == "sieve.load_table":
                later = [s for s in spans[j + 1:] if s["parent"] == span["parent"]]
                hits += not (later and later[0]["name"] == "sieve.sieve_dk")
    misses = count["sieve.dump_table"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    values = sum(a["x_max"] for a in attrs["sieve.sieve_dk"])
    work = sum(oracles.moduli_with_weight(a["Q"], tuple(a["phi"]))
               * oracles.window_length(a["X"], tuple(a["psi"]))
               for a in attrs["variance.delta_k"])
    samples = sum(a["samples"] for a in attrs["gammapoly.gamma_mc_oracle"])
    primes = sum(len(oracles.prime_list(a["prime_limit"]))
                 for a in attrs["constants.a_k_const"] + attrs["constants.a_tilde_k"])
    return {
        "sieve.sieve_dk_s": self_s["sieve.sieve_dk"],
        "sieve.values": values,
        "sieve.values_per_s": rate(values, self_s["sieve.sieve_dk"]),
        "sieve.dump_table_s": self_s["sieve.dump_table"],
        "sieve.load_table_s": self_s["sieve.load_table"],
        "sieve.cache_bytes_written": sum(a["bytes"] for a in attrs["sieve.dump_table"]),
        "sieve.cache_bytes_read": sum(a["bytes"] for a in attrs["sieve.load_table"]),
        "sieve.cache_hit_ratio": rate(hits, hits + misses),
        "variance.delta_k_s": self_s["variance.delta_k"],
        "variance.delta_k_work": work,
        "variance.delta_k_work_per_s": rate(work, self_s["variance.delta_k"]),
        "variance.conjectured_values_s": self_s["variance.conjectured_values"],
        "variance.short_interval_variance_s": self_s["variance.short_interval_variance"],
        "variance.identity_residual_max": max(
            (a["residual"] for a in attrs["variance.delta_k"]), default=0.0),
        "constants.a_k_const_s": self_s["constants.a_k_const"],
        "constants.a_k_const_calls": count["constants.a_k_const"],
        "constants.a_tilde_k_self_s": self_s["constants.a_tilde_k"],
        "constants.primes_swept": primes,
        "gammapoly.gamma_exact_s": self_s["gammapoly.gamma_exact"],
        "gammapoly.p_k_s": self_s["gammapoly.p_k"],
        "gammapoly.gamma_mc_oracle_s": self_s["gammapoly.gamma_mc_oracle"],
        "gammapoly.mc_samples_per_s": rate(samples, self_s["gammapoly.gamma_mc_oracle"]),
        "rmt.secular_coefficients_s": self_s["rmt.secular_coefficients"],
        "rmt.secular_coefficients_calls": count["rmt.secular_coefficients"],
        "rmt.rmt_gamma_deviation_self_s": self_s["rmt.rmt_gamma_deviation"],
        "weights.make_bump_s": self_s["weights.make_bump"],
        "cli.self_s": self_s["cli.main"],
        "cli.emit_report_s": self_s["cli.emit_report"],
    }, sum(self_s.values())


def measure(workload, seed, seconds, trace, work):
    """Run passes until the next one would end after `seconds`."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    runs = {False: [], True: []}
    rounds = []
    i = 0
    while True:
        t = time.monotonic()
        # alternate which side runs first, so a drift in speed cancels
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            calls = run_pass(workload, seed, i, traced, work, deadline)
            runs[traced].append(calls)
            print(f"{workload.name} pass {i}{' traced' if traced else ''}: "
                  f"{sum(c.result.get('wall_s', 0.0) for c in calls):.3f} s, "
                  f"{sum(c.failed() for c in calls)} failed", file=sys.stderr)
            if any(c.result.get("exit_code") is None for c in calls):
                return runs
        rounds.append(time.monotonic() - t)
        i += 1
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            return runs


def summarise(workload, runs, trace):
    """(correct, attempted, failed, metrics, problems) of one run."""
    all_calls = [c for calls in runs[False] + runs[True] for c in calls]
    attempted = sum(c.expected_rows for c in all_calls)
    failed = sum(c.failed() for c in all_calls)
    problems = [f"{' '.join(c.argv)}: {m}" for c in all_calls
                for m in c.failed_checks + c.errors]
    problems += [f"{' '.join(c.argv)}: exit {c.result.get('exit_code')}: "
                 f"{c.result.get('stderr', '').strip()[-300:]}"
                 for c in all_calls if c.result.get("exit_code") != 0]

    plain = end_to_end(workload, runs[False])
    if not trace:
        return failed == 0, attempted, failed, plain, problems
    layers = []
    accounted = True
    for calls in runs[True]:
        metrics, self_total = per_layer(calls)
        wall = sum(c.result.get("wall_s", math.nan) for c in calls)
        # every span's self time adds up to the traced wall time
        if not abs(self_total - wall) <= 1e-3 * wall + 1e-3 * len(calls):
            accounted = False
            problems.append(f"span self times sum to {self_total:.6f} s, wall is {wall:.6f} s")
        layers.append(metrics)
    if not layers:
        return False, attempted, failed, {}, problems + ["no traced pass finished"]
    # median_low, so that every count is one a traced pass really made
    metrics = {m: statistics.median_low(p[m] for p in layers) for m in layers[0]}
    metrics["trace.overhead_s"] = end_to_end(workload, runs[True])["wall_s"] - plain["wall_s"]
    return failed == 0 and accounted, attempted, failed, metrics, problems


# ----------------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------------

def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(args, passes):
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, "divvar": version,
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit()}


def report(workload, args, runs, units):
    correct, attempted, failed, metrics, problems = summarise(workload, runs, args.trace)
    passes = len(runs[args.trace == 1])
    print(f"{workload.name}: seed {args.seed}, {passes} passes, "
          f"{attempted} operations attempted, {failed} failed, correct={correct}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics.get(name, math.nan):>20.10g} {unit}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print("provenance " + json.dumps(provenance(args, passes)))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                    if n in metrics},
    }))
    sys.stdout.flush()
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divvar" / "cli.py").is_file():
        print(f"no divvar sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    work = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        set_child_env(work)
        # compile the bytecode and warm the file cache before timing
        warm = Call(["--help"], 0, work / "cwd")
        run_call(warm, False, time.monotonic() + 60)
        if warm.result.get("exit_code") != 0:
            print(f"cannot import divvar: {warm.result.get('stderr', '')}", file=sys.stderr)
            return 2
        ok = True
        for name in names:
            workload = WORKLOADS[name]()
            runs = measure(workload, args.seed, args.seconds, args.trace, work)
            ok = report(workload, args, runs, units) and ok
        # one workload's result line carries `correct`; `all` also exits 1
        return 0 if ok or args.workload != "all" else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
