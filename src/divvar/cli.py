"""Command-line front end.

Subcommands:
  gamma      exact piecewise density gamma_k, the polynomial P_k, and
             (optionally) a seeded Monte-Carlo cross-check
  constants  Euler-product constants a_k, a~_k and the modulus-dependent
             a_k(q), with tail bounds
  variance   empirical Delta_k / short-interval sweeps compared against
             the predicted values, with ratio columns
  rmt        exact secular coefficients I_k(m;N) and their scaled
             deviation from gamma_k, relative to max_m gamma_k(m/N), at
             N // 2 (when N >= 2) and at N,
             plus an exact shift-average check on rational shifts
             (k <= 6; a nonzero gap is an error row)
  selftest   fast end-to-end invariant suite

Each subcommand takes only the flags it reads (the table _COMMANDS), plus
--format and --out; any other flag, or an abbreviated one, is an invalid
config.  Configuration comes from the flags alone; a setting left unset
takes its default.  A JSON report echoes under "config" only the
settings the subcommand read.  Reports are emitted as CSV or as JSON,
each row's values in the report's column order (a JSON row holds only
the columns it fills); floats are printed with 17 significant digits,
exact rationals as "num/den" strings and enums by their value.
A variance row is its two records, variance.VarianceBreakdown and
variance.Prediction, whose fields are named as their columns, plus the
ratio and short-interval columns.

The Monte-Carlo check of gamma draws its uniforms once for the whole
c-grid (gammapoly.gamma_mc_oracle), so its rows share their samples.

Exit codes: 0 success, 1 invalid config (a flag the subcommand does not
read, a value its flag refuses, --x given with --c-grid, gamma's --seed
or --c-grid without --samples, a c-grid value that is not finite and
positive, gamma's --samples with k = 1, below 10^4 or with a c-grid
value not below k, variance with --q below 2, a Q^c that overflows a
float, a --q whose moduli [Q, 2Q] may need more than
sieve.MEMORY_BUDGET_BYTES (variance.modulus_bytes, O(Q) words: Q up to
about 4.9 10^7 passes), or an X (given, or round(Q^c) from --c-grid)
whose c = log X/log Q is outside (0, k), X = 1 included, or whose sieve
window [X, 2X + H] needs more than sieve.MEMORY_BUDGET_BYTES, a
constants --prime-limit below constants.MIN_PRIME_LIMIT, or rmt with k N
above rmt.KN_BOUND; one "invalid config:" line on stderr, before
anything is computed), 2 computation error (including a report with any
error row, and a constants --q whose primes up to sqrt(q) would need
more than sieve.MEMORY_BUDGET_BYTES), 3 I/O error (an --out that cannot
be written, or a --cache-dir that cannot be made or written, such as a
regular file or a path under one; one "i/o error" line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from . import constants as consts
from . import gammapoly, rmt, sieve, variance
from .weights import Normalization, make_bump


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------------
# Report assembly and emission
# ----------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Enum):
        return v.value
    return v


def emit_report(report: dict, fmt: str, out) -> None:
    """Write a report as CSV or JSON, each row in report["columns"] order.

    A JSON row holds only the columns its row has; CSV leaves the others
    empty.
    """
    columns = report["columns"]
    if fmt == "json":
        formatted = {
            "config": report["config"],
            "columns": columns,
            "rows": [{c: _fmt(row[c]) for c in columns if c in row}
                     for row in report["rows"]],
            "errors": report["errors"],
        }
        json.dump(formatted, out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in report["rows"]:
        writer.writerow([_fmt(row.get(c, "")) for c in columns])
    for err in report["errors"]:
        writer.writerow(["#ERROR"] + [err])


def _new_report(config: dict, columns: list) -> dict:
    public = {k: v for k, v in config.items() if v is not None}
    return {"config": public, "columns": columns, "rows": [], "errors": []}


# ----------------------------------------------------------------------------
# Sieve cache
# ----------------------------------------------------------------------------

def _get_table(k: int, x_min: int, x_max: int,
               cache_dir: Optional[str]) -> sieve.DivisorTable:
    """d_k on the window [x_min, x_max], from `dk_{k}_{x_max}.bin` in cache_dir.

    The file holds one window per (k, x_max); any other window is a miss.
    """
    if cache_dir is None:
        return sieve.sieve_dk(k, x_max, x_min)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"dk_{k}_{x_max}.bin")
    if os.path.exists(path):
        # a torn, corrupt, old-format or foreign file is a miss: sieve again
        # and overwrite it
        try:
            table = sieve.load_table(path)
        except (OSError, ValueError):
            table = None
        if table is not None and (table.k, table.x_min, table.x_max) == (
                k, x_min, x_max):
            return table
    table = sieve.sieve_dk(k, x_max, x_min)
    sieve.dump_table(table, path)
    return table


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_gamma(cfg: dict) -> dict:
    k = cfg["k"]
    columns = ["kind", "k", "piece", "c", "coefficients_or_value",
               "mc_value", "mc_std_error"]
    report = _new_report(cfg, columns)
    g = gammapoly.gamma_exact(k)
    for j, piece in enumerate(g.pieces):
        report["rows"].append({
            "kind": "gamma_piece", "k": k, "piece": j,
            "coefficients_or_value": " ".join(_fmt(c) for c in piece.coeffs),
        })
    p = gammapoly.p_k(k)
    report["rows"].append({
        "kind": "p_poly", "k": k,
        "coefficients_or_value": " ".join(_fmt(c) for c in p.coeffs),
    })
    report["rows"].append({
        "kind": "integral", "k": k,
        "coefficients_or_value": g.integral(),
    })
    samples = cfg["samples"]
    if samples:
        estimates = gammapoly.gamma_mc_oracle(
            k, cfg["c_grid"], samples, cfg["seed"])
        for c, (est, err) in zip(cfg["c_grid"], estimates):
            report["rows"].append({
                "kind": "mc_check", "k": k, "c": float(c),
                "coefficients_or_value": g.eval_float(c),
                "mc_value": est, "mc_std_error": err,
            })
    return report


def cmd_constants(cfg: dict) -> dict:
    k, limit = cfg["k"], cfg["prime_limit"]
    columns = ["name", "k", "q", "prime_limit", "value", "tail_bound"]
    report = _new_report(cfg, columns)
    base = consts.a_k_const(k, limit)
    tilde = consts.a_tilde_k(k, base)
    report["rows"].append({"name": "a_k", "k": k, "prime_limit": limit,
                           "value": base.value, "tail_bound": base.tail_bound})
    report["rows"].append({"name": "a_tilde_k", "k": k, "prime_limit": limit,
                           "value": tilde.value, "tail_bound": tilde.tail_bound})
    if cfg["q"]:
        value = float(consts.a_k_of_q(k, cfg["q"], cfg["q"], base)[0])
        report["rows"].append({
            "name": "a_k_of_q", "k": k, "q": cfg["q"], "prime_limit": limit,
            "value": value, "tail_bound": base.tail_bound * value / base.value,
        })
    return report


_VARIANCE_COLUMNS = [
    "k", "Q", "X", "c", "regime", "delta", "a_term", "b_term", "d_term",
    "g_term", "prediction_leading", "prediction_exact_q",
    "prediction_diagonal", "prediction_offdiagonal",
    "ratio_delta_leading", "ratio_delta_exact_q", "short_interval_H",
    "short_interval_variance",
]


def cmd_variance(cfg: dict) -> dict:
    k, Q = cfg["k"], cfg["q"]
    if Q is None:
        raise ConfigError("variance requires --q")
    if Q < 2:
        raise ConfigError("variance needs --q >= 2 (c = log X / log Q)")
    if cfg["x"]:
        xs = [cfg["x"]]
    else:
        try:
            xs = sorted({int(round(Q ** c)) for c in cfg["c_grid"]})
        except OverflowError:
            raise ConfigError("Q^c overflows a float for a c in the grid") from None
    h = cfg["h"] or 0
    # phi, made on (1, 2) below, weights the moduli q in [Q, 2Q]
    need = variance.modulus_bytes(Q, 2 * Q)
    if need > sieve.MEMORY_BUDGET_BYTES:
        raise ConfigError(
            f"Q = {Q}: the moduli [{Q}, {2 * Q}] need up to {need} bytes, "
            f"budget is {sieve.MEMORY_BUDGET_BYTES} bytes")
    # the c that conjectured_values checks; X = 1 gives c = 0
    for X in xs:
        c = math.log(X) / math.log(Q)
        if not 0.0 < c < k:
            raise ConfigError(
                f"X = {X} gives c = log X/log Q = {c:.6f} outside (0, {k})")
        need = sieve.sieve_bytes(k, X, 2 * X + h)
        if need > sieve.MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"X = {X}: sieving d_{k} on [{X}, {2 * X + h}] needs {need} "
                f"bytes, budget is {sieve.MEMORY_BUDGET_BYTES} bytes")
    report = _new_report(cfg, _VARIANCE_COLUMNS)
    psi = make_bump(1, 2, Normalization.INTEGRAL_OF_SQUARE_ONE)
    phi = make_bump(1, 2, Normalization.INTEGRAL_ONE)
    base = consts.a_k_const(k)
    tilde = consts.a_tilde_k(k, base)
    for X in xs:
        try:
            # psi(n/X) vanishes outside [X, 2X]; the short-interval sums
            # read up to 2X + H
            table = _get_table(k, X, 2 * X + h, cfg["cache_dir"])
            bd = variance.delta_k(table, Q, X, psi, phi)
            pred = variance.conjectured_values(k, Q, X, base, tilde, phi)
            row = {"k": k, "Q": Q, "X": X, **vars(bd), **vars(pred)}
            for name in ("leading", "exact_q"):
                p = row[f"prediction_{name}"]
                row[f"ratio_delta_{name}"] = bd.delta / p if p else float("nan")
            if h:
                row["short_interval_H"] = h
                row["short_interval_variance"] = (
                    variance.short_interval_variance(table, X, h))
            report["rows"].append(row)
        except (ValueError, ArithmeticError) as exc:
            report["errors"].append(f"X={X}: {exc}")
    return report


def cmd_rmt(cfg: dict) -> dict:
    k, N = cfg["k"], cfg["n"]
    columns = ["kind", "k", "N", "m", "value", "deviation", "argmax_m"]
    report = _new_report(cfg, columns)
    table = rmt.secular_coefficients(k, N)
    for m, coeff in enumerate(table.coefficients):
        report["rows"].append({"kind": "secular", "k": k, "N": N, "m": m,
                               "value": coeff})
    half = [rmt.secular_coefficients(k, N // 2)] if N >= 2 else []
    for t in (*half, table):
        dev, arg = rmt.rmt_gamma_deviation(t)
        report["rows"].append({"kind": "gamma_deviation", "k": k, "N": t.N,
                               "deviation": dev, "argmax_m": arg})
    if k > rmt.MAX_SHIFTS:
        return report
    # shifts m/1024 in (e^-0.3, e^0.3), with m odd (so ab != 1) and distinct
    # on each side: no CFKRS term is singular, and the two sides agree exactly
    rng = random.Random(0)
    for trial in range(3):
        A, B = ([Fraction(m, 1024) for m in rng.sample(range(759, 1382, 2), k)]
                for _ in range(2))
        lhs = rmt.haar_average_heine(A, B, min(N, 6))
        rhs = rmt.cfkrs_rhs(A, B, min(N, 6))
        gap = abs(lhs - rhs) / abs(lhs)
        report["rows"].append({
            "kind": "shift_average_check", "k": k, "N": min(N, 6), "m": trial,
            "value": float(gap),
        })
        if gap:
            report["errors"].append(
                f"shift_average_check m={trial}: Heine and CFKRS differ, "
                f"relative gap {float(gap):.3g}")
    return report


def cmd_selftest(cfg: dict) -> dict:
    columns = ["check", "status", "detail"]
    report = _new_report(cfg, columns)

    def record(name, fn):
        try:
            fn()
            report["rows"].append({"check": name, "status": "ok", "detail": ""})
        except Exception as exc:  # noqa: BLE001 - report and continue
            report["rows"].append(
                {"check": name, "status": "FAIL", "detail": str(exc)})
            report["errors"].append(f"{name}: {exc}")

    def sieve_check():
        # d_3(n) counts the pairs a | n, b | n/a: no primes, no binomials
        t = sieve.sieve_dk(3, 1000)
        for n in (1, 6, 12, 64, 997):
            pairs = sum(n // a % b == 0 for a in range(1, n + 1) if n % a == 0
                        for b in range(1, n // a + 1))
            assert int(t.values[n - 1]) == pairs, (n, int(t.values[n - 1]), pairs)

    def gamma_check():
        g = gammapoly.gamma_exact(2)
        assert g.integral() == Fraction(1, 12)
        assert gammapoly.p_k(2).coeffs == (
            Fraction(4, 3), Fraction(-2), Fraction(1), Fraction(-1, 3))

    def constants_check():
        base = consts.a_k_const(2, 10**5)
        assert abs(base.value - 6 / math.pi**2) < 1e-4

    def rmt_check():
        A = (Fraction(11, 10), Fraction(9, 10))
        B = (Fraction(21, 20), Fraction(97, 100))
        assert rmt.haar_average_heine(A, B, 5) == rmt.cfkrs_rhs(A, B, 5)

    def secular_check():
        # Keating-Snaith: prod_{j<4} j! (j+4)! / ((j+2)!)^2 = 105, the
        # average of |det(1 - g)|^4 over U(4), is I_2(.; 4) at x = 1
        assert sum(rmt.secular_coefficients(2, 4).coefficients) == 105

    def variance_check():
        # Delta_k against the pair-sum definition of each V_q, which bins
        # nothing: sum over m = n (q) with (mn, q) = 1 of w_m w_n, minus
        # (sum over (n, q) = 1 of w_n)^2 / phi(q), within 1e-12 of the
        # same-residue part A.  At (Q, X) = (20, 1000) every row of delta_k
        # takes the FFT route; at (5, 2000) the d = 1 row folds and serves
        # every row.
        t = sieve.sieve_dk(2, 4000)
        psi = make_bump(1, 2, Normalization.INTEGRAL_OF_SQUARE_ONE)
        phi = make_bump(1, 2, Normalization.INTEGRAL_ONE)
        for Q, X in ((20, 1000), (5, 2000)):
            bd = variance.delta_k(t, Q, X, psi, phi)
            ns = np.arange(X, 2 * X + 1)
            w = t.window(X, 2 * X) * psi.eval_array(ns / X)
            qs = np.arange(Q, 2 * Q + 1)
            same, direct = [], []
            for q, pw in zip(qs.tolist(), phi.eval_array(qs / Q).tolist()):
                wq = np.where(np.gcd(ns, q) == 1, w, 0.0)
                # the pairs n, n + tq: t = 0 once, each t >= 1 twice
                pairs = wq @ wq + 2 * sum(wq[:-j] @ wq[j:]
                                          for j in range(q, wq.size, q))
                totient = np.count_nonzero(np.gcd(np.arange(q), q) == 1)
                same.append(pw * pairs)
                direct.append(pw * (pairs - wq.sum() ** 2 / totient))
            direct = math.fsum(direct)
            assert abs(bd.delta - direct) <= 1e-12 * math.fsum(same), (
                Q, X, bd.delta, direct)

    record("sieve_matches_pointwise", sieve_check)
    record("gamma_exact_identities", gamma_check)
    record("euler_product_value", constants_check)
    record("shift_average_identity", rmt_check)
    record("secular_total_mass", secular_check)
    record("variance_decomposition", variance_check)
    return report


# ----------------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------------

# key: (default, keyword arguments of its flag --key)
_SETTINGS = {
    "k": (2, {"type": int}),
    "x": (None, {"type": int}),
    "q": (None, {"type": int}),
    "h": (None, {"type": int}),
    "c_grid": (None, {"type": lambda s: [float(t) for t in s.split(",")]}),
    "prime_limit": (consts.DEFAULT_PRIME_LIMIT, {"type": int}),
    "n": (20, {"type": int}),
    "samples": (None, {"type": int}),
    "seed": (0, {"type": int}),
    "cache_dir": (None, {}),
    "format": ("csv", {"choices": ("json", "csv")}),
    "out": (None, {}),
}

# each subcommand: (its function, the settings it reads); every one also
# takes _COMMON
_COMMON = ("format", "out")
_COMMANDS = {
    "gamma": (cmd_gamma, ("k", "c_grid", "samples", "seed")),
    "constants": (cmd_constants, ("k", "q", "prime_limit")),
    "variance": (cmd_variance, ("k", "q", "x", "c_grid", "h", "cache_dir")),
    "rmt": (cmd_rmt, ("k", "n")),
    "selftest": (cmd_selftest, ()),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divvar", allow_abbrev=False,
        description="Variance of k-fold divisor sums in progressions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key in (*keys, *_COMMON):
            p.add_argument("--" + key.replace("_", "-"), **_SETTINGS[key][1])
    return parser


def _default_c_grid(k: int) -> list:
    """The Theorem-1 sweep, the c < k of it: c = log X/log Q must lie in (0, k)."""
    return [c for c in (0.5, 0.8, 1.0, 1.2, 1.5, (k + 2) / k - 0.1) if c < k]


def build_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the flags.

    The result holds the settings the subcommand reads, plus "command".
    """
    keys = (*_COMMANDS[args.command][1], *_COMMON)
    given = {key: getattr(args, key) for key in keys
             if getattr(args, key) is not None}
    cfg = {key: given.get(key, _SETTINGS[key][0]) for key in keys}
    cfg["command"] = args.command
    if args.command == "gamma" and cfg["samples"] is None:
        # seed and c_grid drive the Monte-Carlo check alone
        if "seed" in given or "c_grid" in given:
            raise ConfigError("--seed and --c-grid need --samples")
        del cfg["seed"], cfg["c_grid"]
    if "k" in cfg and not 1 <= cfg["k"] <= sieve.MAX_K:
        raise ConfigError(f"k must be in [1, {sieve.MAX_K}]")
    if "c_grid" in cfg:
        if cfg.get("x") is not None and cfg["c_grid"] is not None:
            raise ConfigError("give --x or --c-grid, not both")
        if cfg.get("x") is None and cfg["c_grid"] is None:
            cfg["c_grid"] = _default_c_grid(cfg["k"])
    for key in ("x", "q", "h", "n", "samples"):
        if cfg.get(key) is not None and cfg[key] < 1:
            raise ConfigError(f"{key} must be positive")
    # what a_k_const and secular_coefficients refuse, refused before either runs
    if cfg.get("prime_limit", math.inf) < consts.MIN_PRIME_LIMIT:
        raise ConfigError(
            f"prime-limit must be at least {consts.MIN_PRIME_LIMIT}")
    if "n" in cfg and cfg["k"] * cfg["n"] > rmt.KN_BOUND:
        raise ConfigError(
            f"k * n = {cfg['k'] * cfg['n']} exceeds the bound {rmt.KN_BOUND}")
    if cfg.get("seed", 0) < 0:
        raise ConfigError("seed must be non-negative")
    if not all(0 < c < math.inf for c in cfg.get("c_grid") or ()):
        raise ConfigError("c-grid values must be finite and positive")
    if cfg.get("samples") is not None:
        # what the Monte-Carlo oracle refuses, refused before any table is built
        if cfg["k"] < 2:
            raise ConfigError("--samples needs k >= 2")
        if cfg["samples"] < 10**4:
            raise ConfigError("--samples must be at least 10^4")
        if not all(c < cfg["k"] for c in cfg["c_grid"]):
            raise ConfigError(f"c-grid values must lie in (0, k) = (0, {cfg['k']})")
    return cfg


def main(argv: Optional[list] = None) -> int:
    try:
        cfg = build_config(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 1
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        report = _COMMANDS[cfg["command"]][0](cfg)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a --cache-dir that cannot be made or written
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - map to computation-error code
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    emit_report(report, cfg["format"], buf)
    text = buf.getvalue()
    try:
        if cfg["out"]:
            with sieve.atomic_open(cfg["out"], "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"i/o error writing {cfg['out']}: {exc}", file=sys.stderr)
        return 3
    return 2 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
