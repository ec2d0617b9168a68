import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from sieve_oracle import v2_file

import divvar
from divvar import constants as consts
from divvar import gammapoly, rmt, sieve, variance
from divvar.cli import (
    _VARIANCE_COLUMNS,
    ConfigError,
    _get_table,
    build_config,
    emit_report,
    main,
)
from divvar.constants import a_k_const, a_tilde_k
from divvar.gammapoly import gamma_exact


def run_cli(args, tmp_path, name="out"):
    path = str(tmp_path / f"{name}")
    code = main(args + ["--out", path])
    text = open(path).read() if os.path.exists(path) else ""
    return code, text


def test_selftest_passes(tmp_path):
    code, text = run_cli(["selftest"], tmp_path)
    assert code == 0
    assert "FAIL" not in text
    assert "secular_total_mass,ok" in text


def test_selftest_fails_on_a_perturbed_offdiagonal(tmp_path, monkeypatch):
    # the pair-sum reference shares no lag sums with delta_k
    real = variance._lag_sums
    monkeypatch.setattr(variance, "_lag_sums",
                        lambda *args: real(*args) * (1 + 1e-6))
    code, text = run_cli(["selftest"], tmp_path)
    assert code == 2
    status = {r["check"]: r["status"] for r in csv.DictReader(io.StringIO(text))
              if not r["check"].startswith("#ERROR")}
    assert status.pop("variance_decomposition") == "FAIL"
    assert set(status.values()) == {"ok"}


def test_selftest_fails_on_a_perturbed_fold(tmp_path, monkeypatch):
    # the pair-sum reference shares no class sums with delta_k
    real = variance._class_sums
    monkeypatch.setattr(variance, "_class_sums",
                        lambda *args: ((q, s * (1 + 1e-6)) for q, s in real(*args)))
    code, text = run_cli(["selftest"], tmp_path)
    assert code == 2
    status = {r["check"]: r["status"] for r in csv.DictReader(io.StringIO(text))
              if not r["check"].startswith("#ERROR")}
    assert status.pop("variance_decomposition") == "FAIL"
    assert set(status.values()) == {"ok"}


def test_selftest_checks_every_route_of_delta_k(tmp_path, monkeypatch):
    # variance_decomposition at X = 2000 folds w (2001 values), where the
    # d = 1 row serves every row, folds rows 7 and 3 (286 and 667 values)
    # on their own, and takes the other rows by FFT.  Each is shorter than
    # variance._PLAN_COST, so each modulus is its own root: one fold of the
    # row per live modulus, and none of a root's class sums
    folded, transformed = [], []
    fold, lag_sums = variance._fold, variance._lag_sums

    def fold_spy(v, m, ones):
        folded.append((v.size, m))
        return fold(v, m, ones)

    def fft_spy(*args):
        transformed.append(args[3].size)
        return lag_sums(*args)

    monkeypatch.setattr(variance, "_fold", fold_spy)
    monkeypatch.setattr(variance, "_lag_sums", fft_spy)
    code, _ = run_cli(["selftest"], tmp_path)
    assert code == 0
    assert sorted(folded) == [(286, 2), (667, 4), (667, 5), (667, 6)] + [
        (2001, q) for q in range(5, 11)]
    assert transformed


def test_selftest_fails_on_a_perturbed_sieve(tmp_path, monkeypatch):
    # the pointwise reference counts divisor pairs, sharing nothing with the sieve
    real = sieve.sieve_dk

    def perturbed(*args):
        table = real(*args)
        values = table.values.copy()
        values[11] += 1  # d_3(12)
        return sieve.DivisorTable(table.k, table.x_min, table.x_max, values)

    monkeypatch.setattr(sieve, "sieve_dk", perturbed)
    code, text = run_cli(["selftest"], tmp_path)
    assert code == 2
    status = {r["check"]: r["status"] for r in csv.DictReader(io.StringIO(text))
              if not r["check"].startswith("#ERROR")}
    assert status.pop("sieve_matches_pointwise") == "FAIL"
    assert set(status.values()) == {"ok"}


def test_gamma_csv(tmp_path):
    code, text = run_cli(["gamma", "--k", "2"], tmp_path)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    kinds = {r["kind"] for r in rows}
    assert {"gamma_piece", "p_poly", "integral"} <= kinds
    integral = next(r for r in rows if r["kind"] == "integral")
    assert integral["coefficients_or_value"] == "1/12"


def test_constants_json(tmp_path):
    code, text = run_cli(
        ["constants", "--k", "2", "--q", "12", "--prime-limit", "100000",
         "--format", "json"], tmp_path)
    assert code == 0
    report = json.loads(text)
    names = [r["name"] for r in report["rows"]]
    assert names == ["a_k", "a_tilde_k", "a_k_of_q"]
    # JSON round-trips
    assert json.loads(json.dumps(report)) == report


def test_a_k_of_q_tail_bound_is_relative_to_a_k_of_q(tmp_path):
    # a_k(q) = a_k * prod_{p | 12} 1/frak_a_p inherits a_k's relative error
    code, text = run_cli(["constants", "--k", "2", "--q", "12"], tmp_path)
    assert code == 0
    rows = {r["name"]: r for r in csv.DictReader(io.StringIO(text))}
    base, at_q = rows["a_k"], rows["a_k_of_q"]
    ratio = float(at_q["value"]) / float(base["value"])
    assert ratio == pytest.approx(1 / 54, rel=1e-15)  # frak_a_2 = 12, frak_a_3 = 9/2
    assert float(at_q["tail_bound"]) == pytest.approx(
        float(base["tail_bound"]) * ratio, rel=1e-15)


def test_variance_rows_and_regime(tmp_path):
    code, text = run_cli(
        ["variance", "--k", "2", "--q", "100", "--x", "1000",
         "--format", "json"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["errors"] == []
    row = report["rows"][0]
    assert row["regime"] == "Theorem1Range"
    for key in ("delta", "a_term", "ratio_delta_leading"):
        assert float(row[key]) > 0


def test_variance_repeat_gives_identical_rows(tmp_path):
    args = ["variance", "--k", "2", "--q", "60", "--x", "500", "--format", "json"]
    _, t1 = run_cli(args, tmp_path, "a")
    _, t2 = run_cli(args, tmp_path, "b")
    assert json.loads(t1)["rows"] == json.loads(t2)["rows"]


def test_cache_dir_reused(tmp_path):
    cache = str(tmp_path / "cache")
    code, _ = run_cli(
        ["variance", "--k", "2", "--q", "60", "--x", "500",
         "--cache-dir", cache], tmp_path, "c1")
    assert code == 0
    files = os.listdir(cache)
    assert files == ["dk_2_1000.bin"]
    mtime = os.path.getmtime(os.path.join(cache, files[0]))
    code, _ = run_cli(
        ["variance", "--k", "2", "--q", "60", "--x", "500",
         "--cache-dir", cache], tmp_path, "c2")
    assert code == 0
    assert os.path.getmtime(os.path.join(cache, files[0])) == mtime


# an int damage truncates the cache file to that many bytes
@pytest.mark.parametrize("damage", (100, 8, "flip"))
def test_corrupt_cache_is_rebuilt(tmp_path, damage):
    args = ["variance", "--k", "2", "--q", "60", "--x", "500"]
    code, cold = run_cli(args, tmp_path, "cold")
    assert code == 0
    cache = tmp_path / "cache"
    run_cli(args + ["--cache-dir", str(cache)], tmp_path, "fill")
    path = cache / "dk_2_1000.bin"
    good = path.read_bytes()
    if damage == "flip":
        # the low bit of one d_2(n): the file still parses, with one value off
        path.write_bytes(good[:-80] + bytes([good[-80] ^ 1]) + good[-79:])
    else:
        with open(path, "r+b") as fh:
            fh.truncate(damage)
    code, text = run_cli(args + ["--cache-dir", str(cache)], tmp_path, "again")
    assert code == 0
    assert text == cold
    assert os.listdir(cache) == ["dk_2_1000.bin"]
    assert path.read_bytes() == good


def test_cache_holds_the_window_of_each_x(tmp_path):
    cache = tmp_path / "cache"
    code, _ = run_cli(
        ["variance", "--k", "3", "--q", "100", "--c-grid", "2.5,2.8", "--h", "1000",
         "--cache-dir", str(cache)], tmp_path)
    assert code == 0
    xs = (100000, 398107)  # round(100^2.5), round(100^2.8)
    assert sorted(os.listdir(cache)) == sorted(f"dk_3_{2 * x + 1000}.bin" for x in xs)
    for x in xs:
        table = sieve.load_table(str(cache / f"dk_3_{2 * x + 1000}.bin"))
        assert (table.k, table.x_min, table.x_max) == (3, x, 2 * x + 1000)
        assert table.values.dtype == np.uint16


@pytest.mark.parametrize("stale", ("v2", "full", "other x_min"))
def test_get_table_rebuilds_another_window(tmp_path, stale, monkeypatch):
    path = tmp_path / "dk_2_1000.bin"
    if stale == "v2":
        path.write_bytes(v2_file(sieve.sieve_dk(2, 1000)))
    else:
        x_min = 1 if stale == "full" else 499
        sieve.dump_table(sieve.sieve_dk(2, 1000, x_min), str(path))
    sieved = []
    real = sieve.sieve_dk
    monkeypatch.setattr(sieve, "sieve_dk", lambda *a: sieved.append(a) or real(*a))
    table = _get_table(2, 500, 1000, str(tmp_path))
    assert sieved == [(2, 1000, 500)]
    assert (table.x_min, table.x_max) == (500, 1000)
    assert np.array_equal(table.values, real(2, 1000).values[499:])
    back = sieve.load_table(str(path))
    assert (back.x_min, back.x_max) == (500, 1000)
    assert os.listdir(tmp_path) == ["dk_2_1000.bin"]
    # now a hit: nothing is sieved
    assert np.array_equal(_get_table(2, 500, 1000, str(tmp_path)).values, table.values)
    assert sieved == [(2, 1000, 500)]


def test_invalid_config_exit_code():
    assert main(["variance", "--k", "99", "--q", "5"]) == 1
    assert main(["variance", "--k", "2", "--q", "5", "--delta", "2"]) == 1  # no such flag
    assert main(["variance", "--k", "2", "--q", "5", "--threads", "2"]) == 1


@pytest.mark.parametrize("argv", (["gamma", "--k", "3", "--samples", "10000"],
                                  ["rmt", "--k", "2", "--n", "4"]))
def test_negative_seed_is_invalid_config(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config:")


@pytest.mark.parametrize("argv", (
    # a flag only another subcommand reads
    ["rmt", "--x", "100"],
    ["constants", "--seed", "1"],
    ["gamma", "--cache-dir", "D"],
    ["variance", "--q", "60", "--n", "5"],
    ["selftest", "--k", "3"],
    # an abbreviated flag
    ["gamma", "--k", "2", "--sam", "10000"],
    ["constants", "--prime", "1000"],
    # --x would drop the grid
    ["variance", "--k", "2", "--q", "60", "--x", "500", "--c-grid", "0.5,1.5"],
    # a c value that is not finite and positive
    ["variance", "--k", "2", "--q", "50", "--c-grid", "nan"],
    ["variance", "--k", "2", "--q", "50", "--c-grid", "inf"],
    ["variance", "--k", "2", "--q", "50", "--c-grid", "-1"],
    # what the Monte-Carlo oracle refuses
    ["gamma", "--k", "1", "--samples", "10000"],
    ["gamma", "--k", "2", "--samples", "100"],
    ["gamma", "--k", "2", "--samples", "10000", "--c-grid", "2.5"],
    ["gamma", "--k", "3", "--samples", "10000", "--c-grid", "1,3"],
    # a c = log X / log Q outside (0, k)
    ["variance", "--k", "2", "--q", "100", "--c-grid", "2.9"],
    ["variance", "--k", "2", "--q", "100", "--c-grid", "1.5,1.999999999"],
    ["variance", "--k", "2", "--q", "10", "--x", "100000"],
    # a Q^c that overflows a float, with c above k or below it
    ["variance", "--k", "2", "--q", "1000", "--c-grid", "200"],
    ["variance", "--k", "2", "--q", str(10**250), "--c-grid", "1.5"],
    ["variance", "--k", "2", "--q", str(10**400), "--c-grid", "0.5"],
    # an X whose window [X, 2X + H] the sieve's memory budget refuses
    ["variance", "--k", "2", "--q", "1000000", "--c-grid", "1.9"],
    ["variance", "--k", "2", "--q", "1000000", "--c-grid", "0.5,1.9"],
    # a prime limit below the one the tail bounds are stated for
    ["constants", "--k", "2", "--prime-limit", "50"],
    # a prime limit variance does not read, valid as it is
    ["variance", "--k", "2", "--q", "100", "--x", "1000", "--prime-limit", "1000000"],
    # a k N the secular coefficients refuse
    ["rmt", "--k", "8", "--n", "81"],
    ["rmt", "--k", "1", "--n", "641"],
    # rmt draws its shifts from seed 0 and takes no --seed
    ["rmt", "--k", "2", "--n", "4", "--seed", "1"],
    # there are no config files, not even an existing, valid one
    ["gamma", "--k", "2", "--config", "FILE"],
))
def test_refused_argv_is_one_invalid_config_line(argv, capsys, monkeypatch,
                                                 tmp_path):
    def unreachable(*args):
        raise AssertionError("computed before refusing")

    config = tmp_path / "gamma.cfg"
    config.write_text("k = 3\n")
    argv = [str(config) if a == "FILE" else a for a in argv]

    for module, name in ((sieve, "sieve_dk"), (variance, "delta_k"),
                         (gammapoly, "gamma_exact"), (consts, "a_k_const"),
                         (rmt, "secular_coefficients")):
        monkeypatch.setattr(module, name, unreachable)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config:")


@pytest.mark.parametrize("argv", (
    ["variance", "--k", "2", "--q", "1", "--x", "5"],  # c = log X / log 1
    ["variance", "--k", "2", "--q", "2", "--c-grid", "1e-9"],  # round(2^1e-9) = 1
))
def test_variance_refuses_q_or_x_below_2_before_computing(argv, capsys,
                                                          monkeypatch):
    def unreachable(*args):
        raise AssertionError("delta_k ran")

    monkeypatch.setattr(variance, "delta_k", unreachable)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invalid config:")


def test_variance_refuses_a_q_whose_moduli_exceed_the_budget(capsys,
                                                              monkeypatch):
    # the bound at Q = 10^5 is about 1.5e8 bytes: under a 10^8-byte budget
    # that Q is refused before any table is built, and Q = 60 still runs
    def unreachable(*args):
        raise AssertionError("computed before refusing")

    assert variance.modulus_bytes(10**5, 2 * 10**5) > 10**8
    monkeypatch.setattr(sieve, "MEMORY_BUDGET_BYTES", 10**8)
    for module, name in ((sieve, "sieve_dk"), (variance, "delta_k"),
                         (consts, "a_k_const")):
        monkeypatch.setattr(module, name, unreachable)
    assert main(["variance", "--k", "2", "--q", "100000", "--x", "100"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("invalid config: Q = ")
    monkeypatch.undo()
    monkeypatch.setattr(sieve, "MEMORY_BUDGET_BYTES", 10**8)
    assert main(["variance", "--k", "2", "--q", "60", "--x", "500"]) == 0


@pytest.mark.parametrize("Q", (100, 1050, 46416))
def test_variance_moduli_of_the_benchmark_and_research_q_fit_the_budget(Q):
    assert variance.modulus_bytes(Q, 2 * Q) <= sieve.MEMORY_BUDGET_BYTES


@pytest.mark.parametrize("argv, unset", (
    (["gamma", "--k", "2", "--c-grid", "0.5", "--samples", "10000",
      "--seed", "1"], ()),
    (["gamma", "--k", "2"], ("samples", "seed", "c_grid")),
    (["constants", "--k", "2", "--q", "12", "--prime-limit", "1000"], ()),
    (["variance", "--k", "2", "--q", "12", "--c-grid", "0.5", "--h", "3",
      "--cache-dir", "CACHE"], ("x",)),
    (["variance", "--k", "2", "--q", "12", "--x", "4", "--h", "3",
      "--cache-dir", "CACHE"], ("c_grid",)),
    (["rmt", "--k", "2", "--n", "4"], ()),
    (["selftest"], ()),
))
def test_json_config_echoes_only_the_subcommand_keys(argv, unset, tmp_path):
    argv = [str(tmp_path / "cache") if a == "CACHE" else a for a in argv]
    code, text = run_cli(argv + ["--format", "json"], tmp_path)
    assert code == 0
    keys = {
        "gamma": {"k", "c_grid", "samples", "seed"},
        "constants": {"k", "q", "prime_limit"},
        "variance": {"k", "q", "x", "c_grid", "h", "cache_dir"},
        "rmt": {"k", "n"},
        "selftest": set(),
    }[argv[0]]
    config = json.loads(text)["config"]
    assert set(config) == keys - set(unset) | {"format", "out", "command"}


@pytest.mark.parametrize("setting", (["--seed", "5"], ["--c-grid", "0.3"]))
def test_gamma_monte_carlo_settings_need_samples(setting, capsys):
    assert main(["gamma", "--k", "2", *setting]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid config:")
    assert "--samples" in err[0]


def _exact_value(poly, c):
    """A piece of gamma_k at c, summed term by term in Fractions."""
    c = Fraction(c)
    return sum((a * c**i for i, a in enumerate(poly.coeffs)), Fraction(0))


def test_variance_leading_prediction_is_exact_at_k7(tmp_path):
    # the leading term is a~_7 gamma_7(c) Q X (log Q)^48, with gamma_7 of
    # size 1e-52 to 1e-43 at these c: float Horner on its cancelling
    # coefficients gave negative values
    code, text = run_cli(["variance", "--k", "7", "--q", "40", "--c-grid",
                          "1.0,1.2,1.5"], tmp_path)
    assert code == 0
    tilde = a_tilde_k(7, a_k_const(7)).value
    pieces = gamma_exact(7).pieces
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    for row in rows:
        X = int(row["X"])
        c = math.log(X) / math.log(40)
        gamma_c = float(_exact_value(pieces[int(c)], c))
        want = tilde * gamma_c * 40 * X * math.log(40) ** 48
        assert abs(float(row["prediction_leading"]) - want) <= 1e-14 * want


def test_gamma_mc_check_value_is_exact_at_k8(tmp_path):
    code, text = run_cli(["gamma", "--k", "8", "--samples", "10000",
                          "--c-grid", "1.0,1.5,7.5"], tmp_path)
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(text))
            if r["kind"] == "mc_check"]
    assert [float(r["c"]) for r in rows] == [1.0, 1.5, 7.5]
    for row in rows:
        want = float(gamma_exact(8).eval(Fraction(row["c"])))
        assert float(row["coefficients_or_value"]) == want


def test_variance_echoes_the_default_grid(tmp_path):
    code, text = run_cli(["variance", "--k", "2", "--q", "12",
                          "--format", "json"], tmp_path)
    assert code == 0
    report = json.loads(text)
    grid = report["config"]["c_grid"]
    assert grid == [0.5, 0.8, 1.0, 1.2, 1.5, 2 - 0.1]
    xs = sorted({max(2, round(12 ** c)) for c in grid})
    assert [row["X"] for row in report["rows"]] == xs


def test_report_with_error_rows_exit_code(tmp_path, monkeypatch):
    # a partial failure: X = 32 gets its row, X = 63 an error row
    delta_k = variance.delta_k

    def fails_at_63(table, Q, X, psi, phi):
        if X == 63:
            raise ArithmeticError("fails at X = 63")
        return delta_k(table, Q, X, psi, phi)

    monkeypatch.setattr(variance, "delta_k", fails_at_63)
    code, text = run_cli(["variance", "--k", "2", "--q", "10",
                          "--c-grid", "1.5,1.8"], tmp_path)
    assert code == 2
    lines = text.splitlines()
    assert len(lines) == 3 and lines[1].startswith("2,10,32,")
    assert lines[2].startswith("#ERROR,X=63:")


def test_gamma_k8(tmp_path):
    code, text = run_cli(["gamma", "--k", "8"], tmp_path)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert sum(r["kind"] == "gamma_piece" for r in rows) == 8


@pytest.mark.parametrize("under", ("", "sub"))
def test_cache_dir_on_a_file_exit_code(tmp_path, capsys, under):
    # a --cache-dir that is a regular file, or lies under one, is an i/o error
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    code = main(["variance", "--k", "2", "--q", "10", "--x", "50",
                 "--cache-dir", str(blocker / under)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert blocker.read_text() == "not a directory"


def test_unwritable_out_exit_code(tmp_path):
    code = main(["gamma", "--k", "2", "--out",
                 str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert code == 3


def test_out_onto_directory_leaves_nothing(tmp_path):
    target = tmp_path / "D"
    target.mkdir()
    assert main(["gamma", "--k", "2", "--out", str(target)]) == 3
    assert os.listdir(tmp_path) == ["D"]
    assert os.listdir(target) == []


def test_rmt_subcommand(tmp_path):
    code, text = run_cli(["rmt", "--k", "2", "--n", "8"], tmp_path)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    checks = [r for r in rows if r["kind"] == "shift_average_check"]
    assert checks and all(float(r["value"]) < 1e-9 for r in checks)
    devs = [float(r["deviation"]) for r in rows if r["kind"] == "gamma_deviation"]
    assert devs[1] < devs[0]  # deviation shrinks with N


@pytest.mark.parametrize("k", (4, 5, 6))
def test_rmt_shift_average_is_exact(tmp_path, k):
    code, text = run_cli(["rmt", "--k", str(k), "--n", "24"], tmp_path)
    assert code == 0
    checks = [r["value"] for r in csv.DictReader(io.StringIO(text))
              if r["kind"] == "shift_average_check"]
    assert checks == ["0"] * 3


def test_rmt_shift_average_mismatch_is_an_error(tmp_path, monkeypatch):
    import divvar.rmt as rmt

    exact = rmt.cfkrs_rhs
    monkeypatch.setattr(rmt, "cfkrs_rhs", lambda A, B, N: exact(A, B, N) + 1)
    code, text = run_cli(["rmt", "--k", "2", "--n", "4"], tmp_path)
    assert code == 2
    errors = [line for line in text.splitlines() if line.startswith("#ERROR")]
    assert len(errors) == 3 and "Heine" in errors[0]


@pytest.mark.parametrize("n, sizes", ((1, [1]), (2, [1, 2]), (3, [1, 3]),
                                      (4, [2, 4]), (9, [4, 9])))
def test_rmt_gamma_deviation_at_half_and_full_n(n, sizes, tmp_path,
                                                monkeypatch):
    # one row per N // 2 >= 1 and N, each table built once
    built = []
    real = rmt.secular_coefficients
    monkeypatch.setattr(rmt, "secular_coefficients",
                        lambda k, N: built.append(N) or real(k, N))
    code, text = run_cli(["rmt", "--k", "2", "--n", str(n)], tmp_path)
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(text))
            if r["kind"] == "gamma_deviation"]
    assert [int(r["N"]) for r in rows] == sizes
    assert sorted(built) == sizes


def test_rmt_does_not_import_numpy_random(tmp_path):
    # the shifts come from the standard library's random, so a fresh
    # interpreter that runs rmt never loads numpy.random
    src = os.path.dirname(os.path.dirname(os.path.abspath(divvar.__file__)))
    script = ("import sys\n"
              "from divvar.cli import main\n"
              "code = main(['rmt', '--k', '3', '--n', '6', '--out', 'out.csv'])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr
    rows = csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text()))
    checks = [r["value"] for r in rows if r["kind"] == "shift_average_check"]
    assert checks == ["0"] * 3


def test_rmt_beyond_shift_limit(tmp_path):
    # k = 8 draws more shifts than cfkrs_rhs takes: the secular table and the
    # deviations are still reported, without the shift-average probe
    code, text = run_cli(["rmt", "--k", "8", "--n", "4"], tmp_path)
    assert code == 0
    kinds = [r["kind"] for r in csv.DictReader(io.StringIO(text))]
    assert kinds == ["secular"] * 33 + ["gamma_deviation"] * 2


def test_empty_report_header_only():
    buf = io.StringIO()
    emit_report({"config": {}, "columns": ["a", "b"], "rows": [], "errors": []},
                "csv", buf)
    assert buf.getvalue() == "a,b\n"


def test_build_config_defaults():
    import argparse
    ns = argparse.Namespace(command="gamma", k=None, x=None,
                            q=None, h=None, c_grid=None, prime_limit=None,
                            n=None, samples=None, seed=None, format=None,
                            out=None, cache_dir=None)
    cfg = build_config(ns)
    assert cfg["k"] == 2 and cfg["format"] == "csv"
    with pytest.raises(ConfigError):
        build_config(argparse.Namespace(**{**vars(ns), "k": 0}))


def test_record_fields_are_variance_columns():
    # a variance row is {k, Q, X, **breakdown, **prediction} plus ratios
    for record in (variance.VarianceBreakdown, variance.Prediction):
        for field in dataclasses.fields(record):
            assert field.name in _VARIANCE_COLUMNS, (record, field.name)


@pytest.mark.parametrize("argv", (
    ["gamma", "--k", "2", "--samples", "10000", "--c-grid", "0.5,1.5"],
    ["constants", "--k", "2", "--q", "12", "--prime-limit", "1000"],
    ["variance", "--k", "2", "--q", "12", "--c-grid", "0.5,1.5", "--h", "3"],
    ["rmt", "--k", "2", "--n", "4"],
    ["selftest"],
))
def test_json_rows_follow_the_csv_header(argv, tmp_path):
    code, text = run_cli(argv, tmp_path, "csv")
    assert code == 0
    header = next(csv.reader(io.StringIO(text)))
    code, text = run_cli(argv + ["--format", "json"], tmp_path, "json")
    assert code == 0
    report = json.loads(text)
    assert report["columns"] == header and report["rows"]
    for row in report["rows"]:
        assert list(row) == [c for c in header if c in row], row
        assert set(row) <= set(header)


def _readme_cli_examples():
    """The command lines of README's CLI section: its ```sh block, split
    into words, without the `#` comments."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words for words in lines if words]


def test_readme_cli_examples_run(tmp_path, capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 5
    for words in examples:
        assert words[0] == "divvar", words
        argv = [str(tmp_path) if a == "~/.cache/divvar" else a for a in words[1:]]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
