import math
import tracemalloc
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binning_oracle import (
    assert_within_budget,
    delta_binned,
    sharp_variance,
    smooth_variance_Vk,
)
from sieve_oracle import factorize

from divvar.cli import _default_c_grid
from divvar.constants import _inv_frak_a, a_k_const, a_tilde_k
from divvar.gammapoly import gamma_exact
from divvar.summation import exact_sum
from divvar import variance
from divvar.sieve import CoverageError, sieve_dk
from divvar.weights import Normalization, make_bump
from divvar.variance import (
    _block_spectra,
    _class_sums,
    _exact_sums,
    _fft_size,
    _lag_sums,
    Regime,
    classify_regime,
    conjectured_values,
    delta_k,
    short_interval_variance,
)


def test_sharp_variance_trivial_cases(table_k2):
    assert sharp_variance(table_k2, 2, 2) == 0.0
    assert sharp_variance(table_k2, 3, 3) == 0.5


def _brute_sharp(table, q, X):
    sums = {a: 0 for a in range(q) if math.gcd(a, q) == 1}
    for n in range(1, X + 1):
        if math.gcd(n, q) == 1:
            sums[n % q] += int(table.values[n - 1])
    vals = list(sums.values())
    phi_q = len(vals)
    # integer-exact double-sum form: sum_a S_a^2 - phi * mean^2
    a_part = sum(v * v for v in vals)
    total = sum(vals)
    return a_part - total * total / phi_q


_SHARP_GRID = [(q, X) for q in (5, 7, 12, 30, 49) for X in (10, 100, 997, 2000)]


def test_sharp_variance_brute_oracle(table_k2):
    for q, X in _SHARP_GRID:
        got = sharp_variance(table_k2, q, X)
        want = _brute_sharp(table_k2, q, X)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_sharp_variance_is_exact(table_k2):
    # every step in Python ints: sum_a S_a^2 - (sum_a S_a)^2 / phi(q)
    d = [0] + [int(v) for v in table_k2.values[:2000]]
    for q, X in _SHARP_GRID:
        sums = [sum(d[a : X + 1 : q]) for a in range(q) if math.gcd(a, q) == 1]
        exact = sum(s * s for s in sums) - Fraction(sum(sums) ** 2, len(sums))
        assert sharp_variance(table_k2, q, X) == exact, (q, X)


def test_smooth_variance_one_term_per_class(table_k2, psi):
    # q beyond the support span: each class holds at most one n, so
    # V = sum d^2 psi^2 - |sum d psi|^2 / phi over coprime n
    q, X = 997, 400
    v = smooth_variance_Vk(table_k2, q, X, psi)
    ns = np.arange(1, 2 * X + 1)
    w = table_k2.values[ns - 1].astype(float) * psi.eval_array(ns / X)
    mask = np.gcd(ns, q) == 1
    phi_q = sum(1 for a in range(q) if math.gcd(a, q) == 1)
    direct = float(np.sum(w[mask] ** 2)) - float(np.sum(w[mask])) ** 2 / phi_q
    assert v == pytest.approx(direct, rel=1e-12)


def test_smooth_variance_double_sum_identity(table_k2, psi):
    q, X = 11, 100
    v = smooth_variance_Vk(table_k2, q, X, psi)
    ns = np.arange(1, 2 * X + 1)
    w = table_k2.values[ns - 1].astype(float) * psi.eval_array(ns / X)
    sums = defaultdict(float)
    for n, wn in zip(ns.tolist(), w.tolist()):
        if math.gcd(n, q) == 1:
            sums[n % q] += wn
    phi_q = sum(1 for a in range(q) if math.gcd(a, q) == 1)
    a_part = sum(s * s for s in sums.values())
    b_part = sum(sums.values()) ** 2 / phi_q
    assert v == pytest.approx(a_part - b_part, rel=1e-12)


def test_smooth_variance_nonnegative(table_k2, psi):
    for q in (2, 3, 10, 101):
        assert smooth_variance_Vk(table_k2, q, 200, psi) >= 0


def test_wrong_normalization_rejected(table_k2, psi, phi):
    with pytest.raises(ValueError):
        smooth_variance_Vk(table_k2, 5, 100, phi)
    with pytest.raises(ValueError):
        delta_k(table_k2, 50, 100, phi, phi)
    with pytest.raises(ValueError):
        delta_k(table_k2, 50, 100, psi, psi)


def test_coverage_rejected(psi):
    small = sieve_dk(2, 100)
    with pytest.raises(CoverageError):
        smooth_variance_Vk(small, 5, 100, psi)
    with pytest.raises(CoverageError):
        short_interval_variance(small, 60, 5)


def test_delta_decomposition_identities(table_k2, psi, phi):
    bd = delta_k(table_k2, 50, 200, psi, phi)
    assert bd.delta == pytest.approx(bd.a_term - bd.b_term, rel=1e-9)
    assert bd.a_term == pytest.approx(bd.d_term + bd.g_term, rel=1e-9)
    assert bd.delta >= -1e-12 * bd.a_term


def test_delta_matches_direct_vk_sum(table_k2, psi, phi):
    Q, X = 200, 2000
    bd = delta_k(table_k2, Q, X, psi, phi)
    qs = np.arange(Q, 2 * Q + 1)
    direct = math.fsum(
        pw * smooth_variance_Vk(table_k2, q, X, psi)
        for q, pw in zip(qs.tolist(), phi.eval_array(qs / Q).tolist())
        if pw > 0
    )
    assert bd.delta == pytest.approx(direct, rel=1e-9)


# (Q, c) pairs of the oracle grid; c = 2.5, 2.8 at Q = 100 are cache-k3's
# benchmark points.  Q = 200, c = 2.8 would need a 5.6e6 table.
_ORACLE_GRID = [(Q, c) for Q in (50, 200) for c in (0.5, 1.0, 1.5, 2.0, 2.5, 2.8)
                if (Q, c) != (200, 2.8)] + [(100, 2.5), (100, 2.8)]


@pytest.fixture(scope="module")
def oracle_tables():
    x_max = max(2 * round(Q**c) for Q, c in _ORACLE_GRID)
    return {k: sieve_dk(k, x_max) for k in (2, 3)}


@pytest.mark.parametrize("k", (2, 3))
def test_delta_matches_binning_oracle(oracle_tables, psi, phi, k):
    for Q, c in _ORACLE_GRID:
        X = round(Q**c)
        table = oracle_tables[k]
        assert_within_budget(delta_k(table, Q, X, psi, phi),
                             delta_binned(table, Q, X, psi, phi))


def _autocorrelation(u):
    """R[..., h] for 1 <= h < n of the rows of u, from `_lag_sums`: the
    lag sum of the pair (m, count) = (h, 1) is R(h) alone."""
    rows, n = np.atleast_2d(u).shape
    h = np.tile(np.arange(1, n), rows)
    spectra, block = _block_spectra(u)
    if not spectra:  # an empty row has no blocks and no lags
        return np.zeros((rows, 0))
    row = np.repeat(np.arange(rows), n - 1)
    return _lag_sums(spectra, block, row, h, np.ones_like(h)).reshape(rows, n - 1)


@pytest.mark.parametrize("n", (0, 1, 2, 2**14 - 1, 2**14, 2**14 + 1,
                               8 * 2**14 + 3))
def test_autocorrelation_matches_correlate(n):
    # signed values, so most lags are far smaller than R[0]
    u = np.random.default_rng(n).standard_normal(n)
    got = _autocorrelation(u)[0]
    want = np.correlate(u, u, "full")[n:] if n else np.zeros(0)
    assert got.shape == want.shape == (max(n - 1, 0),)
    assert np.all(np.abs(got - want) <= 1e-13 * np.sum(u * u))


@pytest.mark.parametrize("lengths", ((1, 40, 2**14 - 1, 2**14, 7, 0),
                                     (2**14 - 3, 2**14, 2**14 + 5, 100, 1)))
def test_batched_autocorrelation_matches_correlate(lengths):
    # rows of mixed lengths, zero-padded to the longest: all short (one
    # transform per batch), or straddling 2^14 (blocked transforms)
    rng = np.random.default_rng(len(lengths) + max(lengths))
    rows = [rng.standard_normal(n) for n in lengths]
    u = np.zeros((len(rows), max(lengths)))
    for i, row in enumerate(rows):
        u[i, : row.size] = row
    got = _autocorrelation(u)
    assert got.shape == (u.shape[0], u.shape[1] - 1)
    for i, row in enumerate(rows):
        # the padded row's lags: its own, then 0 from n on
        want = np.correlate(u[i], u[i], "full")[u.shape[1]:]
        assert np.all(np.abs(got[i] - want) <= 1e-13 * np.sum(row * row))


def _correlate_lag_sums(u, ms):
    """sum_{t>=1} R(t m) for each m, each R(h) one np.correlate value."""
    n = u.size
    return np.array([math.fsum(np.correlate(u[h:], u[: n - h])[0]
                               for h in range(m, n, m)) for m in ms.tolist()])


def _lag_sums_of(u, ms):
    """The lag sums of the 1-D u at ms by `_block_spectra` and `_lag_sums`."""
    spectra, block = _block_spectra(u)
    return _lag_sums(spectra, block, np.zeros_like(ms), ms, (u.size - 1) // ms)


def test_lag_sums_match_a_direct_sum():
    # zero-padded rows of lengths 9, 4, 1; row 0's pairs have m = 1, 2, the
    # worst case of the 1.5 lags per entry bound: (n - 1)(1 + 1/2) = 12 lags
    rng = np.random.default_rng(5)
    u = np.zeros((3, 9))
    for i, n in enumerate((9, 4, 1)):
        u[i, :n] = rng.standard_normal(n)
    row = np.array([0, 0, 1, 1, 2])
    m = np.array([1, 2, 1, 3, 1])
    count = np.array([8, 4, 3, 1, 1])
    r = [np.correlate(v, v, "full")[8:] for v in u]
    want = [math.fsum(r[i][t * mi] for t in range(1, c + 1))
            for i, mi, c in zip(row.tolist(), m.tolist(), count.tolist())]
    got = _lag_sums(*_block_spectra(u), row, m, count)
    assert np.all(np.abs(got - want) <= 1e-13 * np.sum(u * u, axis=1)[row])


# (n, blocks) with 2^6 as the least block: B = 2 ... 8 blocks, equal (n a
# multiple of B) or with a last block shorter by up to B - 1, and n > 8 * 2^6,
# where blocks grow past the least
@pytest.mark.parametrize("n, blocks", ((128, 2), (125, 2), (190, 3), (253, 4),
                                       (320, 5), (383, 6), (447, 7), (512, 8),
                                       (509, 8), (1000, 8)))
def test_lag_sums_of_blocked_rows(monkeypatch, n, blocks):
    # every modulus 1 <= m < n: lags in every window, and m >= L, whose
    # lags t m span blocks; R from np.correlate
    monkeypatch.setattr(variance, "_MIN_BLOCK", 2**6)
    u = np.random.default_rng(n).standard_normal(n)
    spectra, block = _block_spectra(u)
    assert len(spectra) == blocks and block == -(-n // blocks)
    ms = np.arange(1, n)
    r = np.correlate(u, u, "full")[n - 1:]
    want = [math.fsum(r[m::m]) for m in ms.tolist()]
    assert np.all(np.abs(_lag_sums_of(u, ms) - want) <= 1e-13 * np.sum(u * u))


def test_lag_sums_at_the_sweep_point():
    # a row as long as the d = 1 row at sweep-k2's (1025, 1.8) point: 8
    # blocks of 32,826, moduli in [1025, 2050] and past the block
    n = 262605
    u = np.random.default_rng(7).standard_normal(n)
    assert _block_spectra(u)[1] == 32826
    ms = np.array([1025, 1026, 1337, 2049, 2050, 32825, 32826, 32827, 70001,
                   n - 1])
    got = _lag_sums_of(u, ms)
    assert np.all(np.abs(got - _correlate_lag_sums(u, ms)) <= 1e-13 * np.sum(u * u))


def _strided(n, d):
    """A row of n values read at stride d from a longer array (a view)."""
    return np.random.default_rng(n + d).standard_normal(n * d + 3)[3::d]


# (row, moduli): m = 1 and 2, n = m + 1, n a multiple of every m, rows past
# one stacked product (2^13 entries) and strided d > 1 rows
_FOLD_CASES = [
    (np.random.default_rng(1).standard_normal(2), [1]),
    (np.random.default_rng(2).standard_normal(3), [1, 2]),
    (np.random.default_rng(3).standard_normal(101), [100]),
    (np.random.default_rng(4).standard_normal(1000), [1, 2, 4, 5, 8, 250, 500]),
    (np.random.default_rng(5).standard_normal(20000),
     [1, 2, 3, 7, 4096, 8191, 8192, 8193, 19999]),
    (np.random.default_rng(6).standard_normal(2**16), [1, 2, 2**13, 2**15]),
    (_strided(5001, 7), [1, 2, 13, 100, 5000]),
    (_strided(40000, 2), [1, 2, 3, 1025, 9000]),
]


@pytest.mark.parametrize("u, ms", _FOLD_CASES, ids=(
    "n2", "n3", "n101", "n1000", "n20000", "n65536", "stride7", "stride2"))
def test_fold_lag_sums_match_the_autocorrelation(u, ms):
    # (sum_a S_a^2 - sum u^2) / 2 from the class sums S of u mod each m
    ms = np.array(ms)
    sums = dict(_class_sums(u, ms))
    assert [sums[q].size for q in sorted(sums)] == ms.tolist()
    got = (np.array([sums[q] @ sums[q] for q in ms.tolist()]) - np.sum(u * u)) / 2
    assert np.all(np.abs(got - _lag_sums_of(u, ms)) <= 1e-13 * np.sum(u * u))


# (|w|, s, d, m): the row u_d = w[s::d] (s < d) mod m, from w mod q = d m:
# m = 1, s != 0, q just below |w| (m < n_d is the largest), small q,
# whose rows of w are stacked in several products of 2^13 entries, and
# the wide m = 10^5 on 100,101 values, one whole row and 101 left over
@pytest.mark.parametrize("size, s, d, m", (
    (1000, 0, 1, 1), (1000, 2, 3, 1), (1000, 0, 1, 999), (20001, 1, 2, 9999),
    (20000, 5, 6, 3332), (2**16, 0, 1, 7), (2**16, 2, 3, 5), (2**16, 29, 30, 13),
    (100101, 0, 1, 10**5)))
def test_class_sums_of_w_give_every_row_its_class_sums(size, s, d, m):
    # u_d[i] = w[s + d i], and i = r (mod m) exactly when s + d i = s + d r
    # (mod q), s + d r < q: so u_d's class sums are C_q[s::d]
    w = np.random.default_rng(size + d).standard_normal(size)
    u = w[s::d]
    assert m < u.size and d * m < size
    ((_, c),) = _class_sums(w, np.array([d * m]))
    want = np.bincount(np.arange(u.size) % m, u, m)
    ((_, own),) = _class_sums(u, np.array([m]))
    tol = 1e-13 * np.sum(u * u)
    assert c[s::d].shape == (m,)
    assert np.all(np.abs(c[s::d] - want) <= tol)
    assert np.all(np.abs(own - want) <= tol)


# (moduli, n): the d = 1 rows of cache-k3's c = 2.5 and 2.8 points, of
# (300, 2.8) and of sweep-k2's (1025, 1.8), the least planned length, and
# moduli that are not consecutive
_PLANS = [(np.arange(100, 201), 100001), (np.arange(100, 201), 398108),
          (np.arange(300, 601), round(300**2.8) + 1),
          (np.arange(1025, 2051), 262606), (np.arange(100, 201), variance._PLAN_COST),
          (np.array([3, 4, 6, 9, 10, 12, 35, 36, 49, 64]), 2**18)]


@pytest.mark.parametrize("ms, n", _PLANS, ids=(
    "cache-k3-2.5", "cache-k3-2.8", "300-2.8", "sweep-k2-1.8", "least", "gaps"))
def test_roots_serve_every_modulus_once(ms, n):
    roots = variance._roots(ms, n)
    cap = max(int(ms.max()), n // 8)
    assert sorted(q for _, qs in roots for q in qs) == ms.tolist()
    for root, qs in roots:
        assert root <= cap and all(root % q == 0 for q in qs)
    if n < variance._PLAN_COST:  # too short to plan: each modulus alone
        assert roots == [(q, [q]) for q in ms.tolist()]
    if n == 398108:  # cache-k3's c = 2.8: 31 passes over w instead of 101
        assert len(roots) == 31


def test_class_sums_through_roots_match_bincount():
    # the least planned length: its roots include q = M, roots folded down
    # to several moduli, narrow (2 M <= 2^13) and wide
    n = variance._PLAN_COST
    ms = np.arange(100, 201)
    roots = variance._roots(ms, n)
    assert any(root in qs for root, qs in roots)
    assert any(len(qs) > 1 and 2 * root <= variance._FOLD_ENTRIES for root, qs in roots)
    assert any(len(qs) > 1 and 2 * root > variance._FOLD_ENTRIES for root, qs in roots)
    u = np.random.default_rng(9).standard_normal(n)
    sums = list(_class_sums(u, ms))
    assert [q for q, _ in sums] == [q for _, qs in roots for q in qs]
    for q, c in sums:
        want = np.bincount(np.arange(n) % q, u, q)
        assert np.all(np.abs(c - want) <= 1e-13 * np.sum(u * u)), q


class _Products(np.ndarray):
    """An array that records the entries of each matrix in a product it
    takes part in, and passes that on to what any ufunc makes of it."""

    entries = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Products) else x for x in inputs]
        if ufunc is np.matmul:
            _Products.entries.extend(math.prod(np.shape(x)[-2:]) for x in plain)
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0]
        return result.view(_Products) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("ms", (np.arange(1, 40), np.arange(100, 201),
                                np.arange(3000, 3101), np.arange(9000, 9101)))
def test_no_fold_product_exceeds_the_entry_cap(monkeypatch, ms):
    # folds of u and of its roots' class sums, narrow and wide: every BLAS
    # product stays at most _FOLD_ENTRIES entries, and each C_q is right
    monkeypatch.setattr(_Products, "entries", [])
    u = np.random.default_rng(ms.size).standard_normal(400000)
    sums = dict(_class_sums(u.view(_Products), ms))
    assert max(_Products.entries, default=0) <= variance._FOLD_ENTRIES
    # narrow moduli take products; wide ones, folded down from wide roots, none
    assert bool(_Products.entries) == (2 * ms[0] <= variance._FOLD_ENTRIES)
    for q in (ms[0], ms[-1]):
        want = np.bincount(np.arange(u.size) % q, u, q)
        assert np.all(np.abs(sums[q] - want) <= 1e-13 * np.sum(u * u))


# The two routes `_route` forces: the d = 1 row folds and serves every row
# (True); every row takes the FFT route (False)
_ROUTES = (True, False)


def _route(monkeypatch, serves):
    """Force one of the _ROUTES; under True, gathering or transforming a row
    fails.  Returns the list that gets the length of each array folded."""
    folded = []
    real = variance._class_sums

    def class_sums(u, ms):
        folded.append(u.size)
        return real(u, ms)

    def refuse(*args):
        raise AssertionError("a row was gathered or transformed")

    monkeypatch.setattr(variance, "_serves", lambda n, ms: serves)
    monkeypatch.setattr(variance, "_class_sums", class_sums)
    if serves:
        for name in ("_rows", "_block_spectra", "_lag_sums"):
            monkeypatch.setattr(variance, name, refuse)
    return folded


@pytest.mark.parametrize("serves", _ROUTES)
@pytest.mark.parametrize("k", (2, 3))
def test_each_route_alone_matches_binning_oracle(oracle_tables, psi, phi,
                                                 monkeypatch, k, serves):
    folded = _route(monkeypatch, serves)
    for Q, c in _ORACLE_GRID:
        X = round(Q**c)
        table = oracle_tables[k]
        folded.clear()
        assert_within_budget(delta_k(table, Q, X, psi, phi),
                             delta_binned(table, Q, X, psi, phi))
        if serves:  # only w, the d = 1 row, is folded
            assert set(folded) <= {X + 1}
        else:
            assert folded == []


@pytest.mark.parametrize("serves", _ROUTES)
def test_b_and_d_terms_do_not_depend_on_the_route(oracle_tables, psi, phi,
                                                  monkeypatch, serves):
    # T_d and T2_d come from `_multiple_sums` alone, whatever route the lag
    # sums take: b_term (from the T_d) and d_term (from the T2_d) are the
    # same to the bit under each of the _ROUTES as under `_serves`' choice
    for k in (2, 3):
        for Q, c in _ORACLE_GRID:
            X = round(Q**c)
            chosen = delta_k(oracle_tables[k], Q, X, psi, phi)
            _route(monkeypatch, serves)
            forced = delta_k(oracle_tables[k], Q, X, psi, phi)
            monkeypatch.undo()
            assert (forced.b_term, forced.d_term) == (chosen.b_term, chosen.d_term), (k, Q, c)


@pytest.mark.parametrize("Q, X", ((10**4, 100), (2000, 700), (200, 7)))
def test_rows_without_an_n_add_nothing(table_k2, psi, phi, Q, X):
    # c < 1: no d has lags, and the d > 2X hold no n of [X, 2X], so
    # `_multiple_sums` stops at d = 2X.  With T_d = T2_d = 0 above, one
    # np.bincount over every pair (d, m) of the moduli window gives every
    # field to the bit: the d without an n add only zeros
    plan = variance.moduli_plan(Q, phi)
    ds, mu, count, m = _pairs(Q, phi)
    lo, w = psi.sample(X, 1)
    w *= table_k2.window(lo, lo + w.size - 1)
    t = np.zeros(ds[-1])  # T_d and T2_d at every d <= max ds
    t2 = np.zeros(ds[-1])
    assert 2 * X < ds[-1]  # some d hold no n
    t[: 2 * X], t2[: 2 * X] = variance._multiple_sums(w, lo, plan.mu[: 2 * X])
    t, t2 = t[ds - 1], t2[ds - 1]
    at = np.repeat(ds, count) * m - plan.q_lo
    row = np.repeat(np.arange(ds.size), count)
    s = np.bincount(at, (mu * t)[row], plan.weight.size)
    d_q = np.bincount(at, (mu * t2)[row], plan.weight.size)
    b_q = s * s / plan.totient
    pw = plan.weight
    want = variance.VarianceBreakdown(
        delta=exact_sum(pw * (d_q - b_q)), a_term=exact_sum(pw * d_q),
        b_term=exact_sum(pw * b_q), d_term=exact_sum(pw * d_q), g_term=0.0)
    assert delta_k(table_k2, Q, X, psi, phi) == want


def test_the_benchmark_tracer_binds_delta_k(table_k2, psi, phi):
    # perfbench/tracing.py, read and run here without writing anything,
    # binds delta_k's arguments by name (Q, X, psi, phi) and reads delta,
    # a_term and b_term off its result, as the traced benchmark does
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    tracer = tracing.Tracer()
    traced = tracer.wrap("variance.delta_k", delta_k, tracing._delta_attrs)
    bd = traced(table_k2, 50, 1000, psi, phi)
    (span,) = tracer.spans
    attrs = span["attrs"]
    assert (attrs["Q"], attrs["X"]) == (50, 1000)
    assert attrs["psi"] == attrs["phi"] == [1, 2]
    assert attrs["residual"] == abs(bd.delta - (bd.a_term - bd.b_term)) / abs(bd.delta)
    assert attrs["residual"] < 1e-12


def test_lag_free_rows_skip_the_batches(table_k2, psi, phi, monkeypatch):
    # c < 1: every modulus exceeds the X + 1 values of the window, so no d
    # has lags and there are no rows: no route is weighed, and nothing is
    # folded, gathered or transformed
    def refuse(*args):
        raise AssertionError("a route ran without a row")

    for name in ("_serves", "_class_sums", "_rows", "_block_spectra", "_lag_sums"):
        monkeypatch.setattr(variance, name, refuse)
    for Q, X in ((10**4, 10**3), (2000, 700), (1000, 999)):
        got = delta_k(table_k2, Q, X, psi, phi)
        assert got.g_term == 0.0
        assert_within_budget(got, delta_binned(table_k2, Q, X, psi, phi))


def test_route_choice_at_the_benchmark_points(oracle_tables, psi, phi,
                                              monkeypatch):
    # cache-k3's c = 2.8 point: the d = 1 row folds, so only w is folded,
    # once for each of the 31 roots of its 101 live moduli q = 100 ... 200,
    # and each root's class sums down to the other moduli it serves; no row
    # is gathered or transformed.  sweep-k2's (1025, 1.8): every one of the
    # 1246 rows with lags is transformed once, the d = 1 row (1026 moduli)
    # among them, and nothing is folded
    folds, rows = [], []
    real = variance._fold

    def fold(v, m, ones):
        folds.append((v.size, m))
        return real(v, m, ones)

    def refuse(*args):
        raise AssertionError("a row was gathered or transformed")

    monkeypatch.setattr(variance, "_fold", fold)
    for name in ("_rows", "_block_spectra", "_lag_sums"):
        monkeypatch.setattr(variance, name, refuse)
    X = round(100**2.8)
    delta_k(oracle_tables[3], 100, X, psi, phi)
    roots = variance._roots(np.arange(100, 201), X + 1)
    assert len(roots) == 31
    assert folds == [f for root, qs in roots
                     for f in [(X + 1, root)] + [(root, q) for q in qs if q != root]]
    monkeypatch.undo()

    def block_spectra(u):
        rows.append(u.shape)
        return _block_spectra(u)

    folds.clear()
    monkeypatch.setattr(variance, "_fold", fold)
    monkeypatch.setattr(variance, "_block_spectra", block_spectra)
    X = round(1025**1.8)
    delta_k(sieve_dk(2, 2 * X, X), 1025, X, psi, phi)
    assert (1, X + 1) in rows and sum(r for r, _ in rows) == 1246
    assert folds == []


# id: (Q, X, whether the d = 1 row serves, whether its roots are planned
# to decide)
_D1_ROUTES = {
    "5-2000-True": (5, 2000, True, False),
    "10-2000-True": (10, 2000, True, False),
    "300-2.2-True": (300, round(300**2.2), True, False),
    "300-2.8-True": (300, round(300**2.8), True, False),
    "1025-1.95-True": (1025, round(1025**1.95), True, True),
    "1025-1.8-False": (1025, round(1025**1.8), False, False),
}


@pytest.mark.parametrize("Q, X, serves, planned", _D1_ROUTES.values(), ids=_D1_ROUTES)
def test_route_decision_of_the_d1_row(monkeypatch, phi, Q, X, serves, planned):
    # The route `_serves` picks for the rows u_d of delta_k: the n_d
    # multiples of d in the psi-window [X, 2X] that have lags, moduli
    # m < n_d of their pairs (d, m), q = dm in [Q, 2Q].  The d = 1 row is
    # w, X + 1 values, with every modulus live.  At (5, 2000) and
    # (10, 2000), below _PLAN_COST, and at (300, 2.2) and (300, 2.8)
    # folding w once per modulus costs less than the FFT route of every
    # row; at (1025, 1.95) only the roots do; at sweep-k2's
    # (1025, 1.8) every row takes the FFT route, and no roots are planned
    # to find that out
    ds, _, count, m = _pairs(Q, phi)
    n = 2 * X // ds - (X - 1) // ds
    row = np.repeat(np.arange(ds.size), count)
    moduli = np.bincount(row[m < n[row]], minlength=ds.size)
    ms = m[: moduli[0]]
    assert n[0] == X + 1 and ms.tolist() == list(range(Q, 2 * Q + 1))
    n = n[moduli > 0]
    each = ms.size * (X + 1 + variance._FOLD_OVERHEAD)
    assert (each < (variance._FFT_COST * n * np.log2(n)).sum()) == (serves and not planned)
    lengths, roots = [], variance._roots
    monkeypatch.setattr(variance, "_roots",
                        lambda ms, n: lengths.append(n) or roots(ms, n))
    assert variance._serves(n, ms) is serves
    assert lengths == ([X + 1] if planned else [])


_SWEEP_K2 = [(Q, c) for Q in (1000, 1025, 1049) for c in (0.8, 1.0, 1.2, 1.5, 1.8)]


def test_lag_gathers_stay_within_the_stated_bound(oracle_tables, psi, phi,
                                                  monkeypatch):
    # every inverse block of delta_k's FFT route gathers at most 1.5 lags per
    # entry of the inverse, on the oracle grid and the sweep-k2 points
    ratios = []
    lag_sums = variance._lag_sums

    def spy(spectra, block, row, m, count):
        size = int(_fft_size(2 * block - 1))
        for j in range(len(spectra)):
            # the t in [1, count] with (j - 1) L < t m < (j + 1) L
            t_lo = np.maximum((j - 1) * block // m + 1, 1)
            t_hi = np.minimum(((j + 1) * block - 1) // m, count)
            lags = np.maximum(t_hi - t_lo + 1, 0).sum()
            ratios.append(lags / (spectra[j].size // spectra[j].shape[-1] * size))
        return lag_sums(spectra, block, row, m, count)

    monkeypatch.setattr(variance, "_lag_sums", spy)
    sweep = sieve_dk(2, 2 * max(round(Q**c) for Q, c in _SWEEP_K2))
    points = [(oracle_tables[k], Q, c) for k in (2, 3) for Q, c in _ORACLE_GRID]
    points += [(sweep, Q, c) for Q, c in _SWEEP_K2]
    for table, Q, c in points:
        delta_k(table, Q, round(Q**c), psi, phi)
    assert ratios and max(ratios) <= 1.5


def _transform_shapes(monkeypatch, table, Q, X, psi, phi):
    """delta_k, and the shape of each array it transforms by blocks."""
    shapes = []

    def spy(u):
        shapes.append(u.shape)
        return _block_spectra(u)

    monkeypatch.setattr(variance, "_block_spectra", spy)
    return delta_k(table, Q, X, psi, phi), shapes


@pytest.mark.parametrize("k", (2, 3))
def test_small_batch_cap_splits_groups_within_budget(oracle_tables, psi, phi,
                                                     monkeypatch, k):
    table = oracle_tables[k]
    for Q, c in ((50, 1.5), (50, 2.0), (200, 1.5)):
        X = round(Q**c)
        _, default = _transform_shapes(monkeypatch, table, Q, X, psi, phi)
        # a cap of two rows for the largest batch, of three rows or more
        rows, width = max(default)
        assert rows >= 3
        monkeypatch.setattr(variance, "_BATCH", 2 * int(_fft_size(2 * width - 1)))
        bd, capped = _transform_shapes(monkeypatch, table, Q, X, psi, phi)
        monkeypatch.undo()
        assert sum(r for r, _ in capped) == sum(r for r, _ in default)
        assert len(capped) > len(default) and max(capped)[0] > 1
        assert_within_budget(bd, delta_binned(table, Q, X, psi, phi))


def test_smooth_window_is_the_indexed_formula(table_k3, psi):
    # w is bit-identical to d_k(n) psi(n/X) built from an int64 index array,
    # psi = C exp(-1/((x - 1)(2 - x))) evaluated on the open support only
    for X in (2, 3, 17, 1000, 4101, 16384, 24999):
        lo, w = psi.sample(X, 1)
        w *= table_k3.window(lo, lo + w.size - 1)
        ns = np.arange(X, 2 * X + 1, dtype=np.int64)
        x = ns / float(X)
        inside = (x > 1) & (x < 2)
        bump = np.zeros_like(x)
        xi = x[inside]
        bump[inside] = psi.norm_constant * np.exp(-1.0 / ((xi - 1) * (2 - xi)))
        want = table_k3.values[ns - 1].astype(np.float64) * bump
        assert lo == X and w.dtype == np.float64
        assert w.tobytes() == want.tobytes(), X


# (k, Q, X, H): cache-k3's c = 2.5, 2.8 at Q = 100, and sweep-k2-like points
@pytest.mark.parametrize("k, Q, X, H", (
    (3, 100, 100000, 1000), (3, 100, 398107, 1000), (2, 1025, 262605, 7),
    (2, 50, 3000, 1), (3, 40, 150, 37)))
def test_window_table_gives_the_full_table_values(k, Q, X, H, psi, phi):
    full = sieve_dk(k, 2 * X + H)
    window = sieve_dk(k, 2 * X + H, X)
    assert window.values.nbytes < full.values.nbytes
    assert delta_k(window, Q, X, psi, phi) == delta_k(full, Q, X, psi, phi)
    assert short_interval_variance(window, X, H) == short_interval_variance(full, X, H)
    # the window starts at X: one n lower is not covered
    with pytest.raises(CoverageError):
        short_interval_variance(sieve_dk(k, 2 * X + H, X + 2), X, H)
    with pytest.raises(CoverageError):
        delta_k(sieve_dk(k, 2 * X + H, X + 1), Q, X, psi, phi)


def _second_call_peak(table, Q, X, psi, phi):
    """The traced peak of a second delta_k call; the first makes the
    one-off allocations."""
    delta_k(table, Q, X, psi, phi)
    tracemalloc.start()
    try:
        delta_k(table, Q, X, psi, phi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_delta_k_memory_peak(psi, phi):
    # beside the 2 MiB window, the d = 1 row's blocked transforms dominate
    assert _second_call_peak(sieve_dk(2, 2 * 262605), 1025, 262605, psi, phi) <= 12 * 2**20


def test_delta_k_fft_route_peak_per_n(psi, phi):
    # the d = 1 row comes last and its spectra replace w: the peak is its 8
    # spectra (18 B per n) and three buffers of one block's transform, with
    # the gather of one window; 29.3 B per n were traced (41.9 B when w, R
    # and the spectra were live together)
    X = 262605
    peak = _second_call_peak(sieve_dk(2, 2 * X, X), 1025, X, psi, phi)
    assert peak <= 30 * (X + 1)


def test_delta_k_memory_peak_when_rows_fold(psi, phi):
    # the d = 1 row folds and serves every row here; a second call peaked
    # at 4.0 MiB, 1.3 times the 3 MiB window (4.7 MiB when every row folded
    # on its own, 9.1 MiB while psi was evaluated on the whole window at once)
    X = 398107
    assert _second_call_peak(sieve_dk(3, 2 * X, X), 100, X, psi, phi) <= 5 * 2**20


def test_delta_k_peak_per_modulus_when_w_serves(psi, phi):
    # c = 1.0: the d = 1 row folds its 101 live moduli, each about 10^5,
    # one at a time; every squarefree d <= 2Q holds an n, and the rows are
    # those with lags.  120 B a modulus were traced (127 B while exact_sum
    # binned each array as one piece, 205 B while every d with an n was a
    # row, 343 B while the 862,844 pairs (d, m) were generated as one
    # block, 587 B while every pair was held)
    Q, X = 10**5, 100100
    assert _second_call_peak(sieve_dk(2, 2 * X, X), Q, X, psi, phi) <= 150 * (Q + 1)


def test_delta_k_modulus_side_peak_per_modulus(psi, phi):
    # at X = 100 the moduli set the peak, in the per-q sums and the exact
    # sums over them: a second call, with the plan built, traced 7.0 MB at
    # Q = 10^5, 70 B a modulus (7.8 MB while exact_sum binned each array as
    # one piece, 9.2 MB while the pairs (d, m) were generated in blocks,
    # 55.5 MB while every pair was held)
    Q, X = 10**5, 100
    assert _second_call_peak(sieve_dk(2, 2 * X, X), Q, X, psi, phi) <= 90 * (Q + 1)


def _traced_run_peak(Q, X, psi, phi):
    """The tracemalloc peak of one run's calls at (2, Q, X): the moduli plan
    built afresh, `delta_k`, then `conjectured_values` with the plan held."""
    table = sieve_dk(2, 2 * X, X)
    delta_k(table, Q, X, psi, phi)  # first calls: one-off allocations
    conjectured_values(2, Q, X, _BASE, _TILDE, phi)
    variance.moduli_plan.cache_clear()
    variance._a_k_of_q.cache_clear()
    tracemalloc.start()
    try:
        delta_k(table, Q, X, psi, phi)
        conjectured_values(2, Q, X, _BASE, _TILDE, phi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("Q", (10**4, 2 * 10**4))
def test_modulus_bytes_bounds_the_traced_peak(psi, phi, Q):
    # at X = 100 and at X = Q / 2, where every d <= Q holds an n and no d
    # has lags, and at X = Q, where every squarefree d <= 2Q holds one, the
    # moduli set the peak: 1.1, 1.3 and 1.6 MB were traced at Q = 10^4 and
    # 2.2, 2.6 and 3.2 MB at 2 10^4, against bounds of 3.5 and 7.0 MB
    for X in (100, Q // 2, Q):
        assert _traced_run_peak(Q, X, psi, phi) <= variance.modulus_bytes(Q, 2 * Q)


def _pairs(Q, phi):
    """The squarefree d with a pair (d, m), q = dm in the window of the
    plan at Q, increasing, their mu(d) and pair counts, and the m of every
    pair, by d and then m: from the plan's dense mu alone."""
    plan = variance.moduli_plan(Q, phi)
    q_lo, q_hi = plan.q_lo, plan.q_lo + plan.weight.size - 1
    assert plan.mu.size == q_hi
    ds = np.flatnonzero(plan.mu) + 1
    count = q_hi // ds - -(-q_lo // ds) + 1
    ds, count = ds[count > 0], count[count > 0]
    first, m_lo = np.cumsum(count) - count, -(-q_lo // ds)
    m = np.arange(count.sum()) - np.repeat(first - m_lo, count)
    return ds, plan.mu[ds - 1], count, m


def test_plan_pairs_sum_mobius_to_the_indicator_of_one(phi):
    # sum_{d | n} mu(d) = [n = 1] for every n <= 10^5 determines mu; the
    # pairs (d, m) with d squarefree are every d | n with mu(d) != 0.  Phi
    # supported on (2 / 10^5, 1) gives the window [2, 10^5]
    N = 10**5
    wide = make_bump(2 / N, 1, Normalization.INTEGRAL_ONE)
    ds, mu, count, m = _pairs(N, wide)
    assert variance.moduli_plan(N, wide).q_lo == 2
    assert count.sum() == m.size and np.all(count > 0)
    assert np.all(np.diff(ds) > 0)
    assert set(np.unique(mu).tolist()) == {-1, 1}
    d, sign = np.repeat(ds, count), np.repeat(mu, count)
    assert np.all((d * m >= 2) & (d * m <= N))
    sums = np.bincount(d * m, weights=sign, minlength=N + 1)
    assert not np.any(sums[2:])
    # q_lo cuts the pairs without changing mu
    ds2, mu2, count2, m2 = _pairs(N // 2, phi)
    keep = d * m >= N // 2
    assert np.array_equal(np.repeat(ds2, count2), d[keep])
    assert np.array_equal(m2, m[keep])
    assert np.array_equal(np.repeat(mu2, count2), sign[keep])
    # and trial division agrees: every d <= N has a multiple in [2, N], so
    # the ds are the squarefree d <= N; multiples of p^2 and of p^3 (8,
    # 27, 10^3) are left out
    want = {}
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        if all(e == 1 for _, e in f):
            want[n] = (-1) ** len(f)
    low = ds <= 10**4
    assert ds[low].tolist() == list(want) and mu[low].tolist() == list(want.values())
    assert mu.dtype == np.int8 and not {8, 24, 27, 1000} & set(ds.tolist())


@pytest.mark.parametrize("Q", (2, 1000, 12345))
def test_plan_totient_is_the_mobius_count_of_the_pairs(phi, Q):
    # phi(q) = sum_{d | q} mu(d) q/d, summed over the pairs (d, m) of each q
    plan = variance.moduli_plan(Q, phi)
    ds, mu, count, m = _pairs(Q, phi)
    count_q = np.bincount(np.repeat(ds, count) * m - plan.q_lo,
                          np.repeat(mu, count) * m, plan.weight.size)
    assert plan.totient.dtype == np.int64
    assert np.array_equal(plan.totient, count_q)
    q = np.arange(plan.q_lo, plan.q_lo + plan.weight.size)
    assert plan.totient[:20].tolist() == [
        sum(math.gcd(a, int(v)) == 1 for a in range(int(v))) for v in q[:20]]
    assert np.array_equal(plan.log_q, np.log(q))
    assert np.array_equal(plan.weight, phi.sample(Q, 2)[1])
    # the memo hands the same arrays to every caller: none can be written
    arrays = (plan.weight, plan.mu, plan.totient, plan.log_q)
    assert not any(a.flags.writeable for a in arrays)


# (q_lo, q_hi, the largest d with a term): q_hi a square (45^2, 100^2)
# or one less, the `wide` Phi's q_lo = 2, q_hi != 2 q_lo, and terms only
# at d below sqrt(q_hi), as at the rows of c < 1
_DIVISOR_WINDOWS = {
    "square": (1000, 2025, 2025),
    "square-less-one": (1012, 2024, 2024),
    "from-2": (2, 10**4, 10**4),
    "from-2-less-one": (2, 9999, 700),
    "narrow": (1500, 2400, 1800),
    "short": (1000, 2000, 30),
}


@pytest.mark.parametrize("q_lo, q_hi, top", _DIVISOR_WINDOWS.values(),
                         ids=_DIVISOR_WINDOWS)
def test_divisor_sums_match_one_bincount_over_the_pairs(q_lo, q_hi, top):
    # random terms at the squarefree d <= top, a fifth of them +-0.0 (as
    # mu(d) T_d is at a d without an n), 0 at every other d: every sum
    # equals, to the bit, one np.bincount over every pair (d, m), q = dm in
    # the window, by d and then m
    rng = np.random.default_rng(q_lo + q_hi + top)
    squarefree = np.ones(top, dtype=bool)
    for p in range(2, math.isqrt(top) + 1):
        squarefree[p * p - 1 :: p * p] = False
    ds = np.flatnonzero(squarefree) + 1
    values = rng.standard_normal(ds.size)
    values[rng.random(ds.size) < 0.2] *= 0.0
    g = np.zeros(top)  # dense, as delta_k's mu(d) T_d: 0 off the squarefree d
    g[ds - 1] = values
    m_lo, m_hi = -(-q_lo // ds), q_hi // ds
    count = np.maximum(m_hi - m_lo + 1, 0)
    m = np.concatenate([np.arange(a, b + 1)
                        for a, b in zip(m_lo.tolist(), m_hi.tolist())])
    want = np.bincount(np.repeat(ds, count) * m - q_lo, np.repeat(values, count),
                       q_hi - q_lo + 1)
    got = variance._divisor_sums(g, q_lo, q_hi)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.count_nonzero(got) > (q_hi - q_lo) // 2


# (lo, hi, mu.size): hi a square (45^2, 100^2, 80^2) or one less, lo = 1,
# and mu.size below isqrt(hi), above it, or the whole window and beyond
_MULTIPLE_WINDOWS = {
    "square": (1000, 2025, 2025),
    "square-less-one": (1012, 2024, 2024),
    "from-1": (1, 10**4, 10**4),
    "from-1-less-one": (1, 9999, 700),
    "below-root": (1000, 2000, 30),
    "above-root": (3001, 6400, 200),
    "beyond-window": (5, 99, 150),
}


@pytest.mark.parametrize("lo, hi, size", _MULTIPLE_WINDOWS.values(), ids=_MULTIPLE_WINDOWS)
def test_multiple_sums_match_a_sum_per_d(table_k3, lo, hi, size):
    # w the d_3 values as floats, so every sum is of integers below 2^53
    # and exact in any order: T and T2 equal the sums over the multiples of
    # each d, taken one d at a time in Python ints, except at the d <= isqrt(hi)
    # with mu(d) = 0, which are 0
    values = table_k3.window(lo, hi).tolist()
    w = np.array(values, dtype=np.float64)
    mu = np.random.default_rng(lo + hi + size).integers(-1, 2, size, dtype=np.int8)
    assert not mu[: math.isqrt(hi)].all()  # some d <= sqrt(hi) with mu(d) = 0
    t, t2 = variance._multiple_sums(w, lo, mu)
    want_t, want_t2 = [], []
    for d in range(1, size + 1):
        v = values[-(-lo // d) * d - lo :: d]
        skip = d <= math.isqrt(hi) and mu[d - 1] == 0
        want_t.append(0 if skip else sum(v))
        want_t2.append(0 if skip else sum(x * x for x in v))
    assert t.dtype == t2.dtype == np.float64
    assert t.tolist() == want_t and t2.tolist() == want_t2


def test_fft_size_is_short_and_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5000):
        size = _fft_size(n)
        assert n <= size <= max(1.25 * n, 2) and smooth(size)


def test_offdiagonal_vanishes_when_q_exceeds_span(table_k2, psi, phi):
    # m = n (mod q), m != n impossible once q > span of the weighted support
    bd = delta_k(table_k2, 5000, 100, psi, phi)
    assert bd.g_term == 0.0


def test_short_interval_variance_is_exact(table_k3):
    # at (16000, 18000) sum S_m^2 exceeds 2^53, where float sums lose digits
    for X, H in ((16000, 18000), (20000, 9000), (2000, 300), (20000, 1)):
        vals = [int(v) for v in table_k3.values[: 2 * X + H]]
        prefix = [0]
        for v in vals:
            prefix.append(prefix[-1] + v)
        sums = [prefix[m + H] - prefix[m] for m in range(X, 2 * X)]
        exact = Fraction(sum(s * s for s in sums), X) - Fraction(sum(sums), X) ** 2
        assert short_interval_variance(table_k3, X, H) == float(exact), (X, H)


@pytest.mark.parametrize("k, X, H", ((2, 200003, 1), (3, 2**16, 7), (3, 150001, 1000),
                                     (2, 1000, 1)))
def test_short_interval_variance_in_pieces_is_the_whole_array_value(k, X, H):
    # the window sums formed and summed 2^16 at a time give the value of the
    # whole window array at once, to the bit
    table = sieve_dk(k, 2 * X + H, X)
    prefix = np.zeros(X + H + 1, dtype=np.uint64)
    np.cumsum(table.window(X + 1, 2 * X + H), dtype=np.uint64, out=prefix[1:])
    total, total_sq = _exact_sums(prefix[H : X + H] - prefix[:X])
    want = (X * total_sq - total * total) / (X * X)
    assert short_interval_variance(table, X, H) == want


@pytest.mark.parametrize("k, X, H", ((3, 398107, 1000), (2, 300000, 200000)))
def test_short_interval_variance_peak_is_one_piece(k, X, H):
    # cache-k3's c = 2.8 point and an H past a piece: only one piece of
    # 2^16 window sums and its int64 copy in _exact_sums are allocated,
    # 16.1 B a value traced at both (6.4 MB at the first while the prefix of
    # all X + H + 1 values was held)
    table = sieve_dk(k, 2 * X + H, X)
    short_interval_variance(table, X, H)  # first call: one-off allocations
    tracemalloc.start()
    try:
        short_interval_variance(table, X, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * variance._PIECE


def test_exact_sums_chunk_and_overflow():
    # 20 squares near 2^60 overflow one int64 sum; 2^40 squared overflows
    # int64; just below sqrt(2^63) each square is a chunk of its own, and
    # at 1.5 10^9 the chunks hold 4 squares, the last one 3
    below = [3037000499 - i for i in range(7)]
    chunks = [1_500_000_000 - i for i in range(11)]
    for ints in ([2**30 - i for i in range(20)], [2**40, 3, 2**32], [], [0, 0],
                 below, chunks):
        w = np.array(ints, dtype=np.uint64)
        assert _exact_sums(w) == (sum(ints), sum(v * v for v in ints))


def test_short_interval_riemann_oracle(table_k2):
    def riemann(X, H, dx=1e-3):
        top = 2 * X + H
        pref = np.concatenate(
            ([0], np.cumsum(table_k2.values[:top], dtype=np.int64)))
        xs = np.arange(X, 2 * X, dx) + dx / 2
        lo = np.ceil(xs).astype(int) - 1
        hi = np.floor(xs + H).astype(int)
        s = (pref[hi] - pref[lo]).astype(float)
        return float(np.mean(s**2) - np.mean(s) ** 2)

    for X, H in ((50, 1), (50, 7), (200, 13)):
        got = short_interval_variance(table_k2, X, H)
        assert got >= 0
        assert got == pytest.approx(riemann(X, H), rel=1e-6, abs=1e-6)


def test_short_interval_locality(table_k2):
    small = sieve_dk(2, 2 * 100 + 10)
    assert short_interval_variance(small, 100, 10) == short_interval_variance(
        table_k2, 100, 10)


_BASE = a_k_const(2, 10**5)
_TILDE = a_tilde_k(2, _BASE)


def test_prediction_regimes(phi):
    args = (_BASE, _TILDE, phi)
    assert conjectured_values(2, 10**4, 10**6, *args).regime is Regime.THEOREM1_RANGE
    # c = log 2 / log(2 10^6) = 0.048
    assert conjectured_values(2, 2 * 10**6, 2, *args).regime is Regime.SMALL_C
    big_x = int(100 ** 1.98)
    assert conjectured_values(2, 100, big_x, *args).regime is Regime.CONJECTURAL_ONLY


def test_regime_boundaries(phi):
    assert classify_regime(3, 1.0) is Regime.THEOREM1_RANGE
    assert classify_regime(3, 1.7) is Regime.GRH_RANGE  # above (k+2)/k, below 2-d
    assert classify_regime(3, 0.01) is Regime.SMALL_C
    assert classify_regime(3, 1.99) is Regime.CONJECTURAL_ONLY
    # the prediction carries the same tag: k=3 at c = 1.7
    base = a_k_const(3, 10**5)
    args = (base, a_tilde_k(3, base), phi)
    pred = conjectured_values(3, 100, int(round(100**1.7)), *args)
    assert pred.regime is Regime.GRH_RANGE


def test_prediction_small_c_is_diagonal_only(phi):
    p = conjectured_values(2, 10**4, 500, _BASE, _TILDE, phi)
    assert p.prediction_offdiagonal == 0.0
    assert p.prediction_diagonal > 0


def test_prediction_leading_form_value(phi):
    p = conjectured_values(2, 10**4, 10**6, _BASE, _TILDE, phi)
    expect = _TILDE.value * (1 / 48) * 10**4 * 10**6 * math.log(10**4) ** 3
    assert p.prediction_leading == pytest.approx(expect, rel=1e-9)


def test_prediction_gamma3_at_one():
    g3 = gamma_exact(3)
    assert float(g3.eval(1.0)) == 1 / math.factorial(8)


def test_prediction_c_out_of_range_rejected(phi):
    with pytest.raises(ValueError):
        conjectured_values(2, 10, 10**7, _BASE, _TILDE, phi)


def test_exact_q_form_approaches_leading(phi):
    ratios = []
    for Q in (100, 1000, 10000):
        X = int(round(Q**1.3))
        p = conjectured_values(2, Q, X, _BASE, _TILDE, phi)
        ratios.append(p.prediction_exact_q / p.prediction_leading)
    assert abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)


def _exact_q_per_modulus(k, Q, X, base, phi):
    """sum over q in [Q, 2Q] of a_k(q) X gamma_k(c_q) (log q)^{k^2-1} Phi(q/Q),
    c_q = log X/log q, one modulus at a time: a_k(q) from the primes of q
    by trial division, gamma_k(c_q) the exact value rounded once, and the
    terms summed by math.fsum."""
    gamma = gamma_exact(k)
    terms = []
    for q in range(Q, 2 * Q + 1):
        a_q = base.value * math.prod(_inv_frak_a(k, 1.0 / p) for p, _ in factorize(q))
        g = float(gamma.eval(math.log(X) / math.log(q)))
        weight = float(phi.eval_array(np.array([q / Q]))[0])
        terms.append(a_q * X * g * math.log(q) ** (k * k - 1) * weight)
    return math.fsum(terms)


@pytest.mark.parametrize("k", (2, 3, 5, 8))
@pytest.mark.parametrize("Q", (100, 300))
def test_exact_q_prediction_matches_a_sum_per_modulus(k, Q, phi):
    # the worst gap on this grid was 3.4e-16; the gate is 10 times that
    base = a_k_const(k, 10**5)
    tilde = a_tilde_k(k, base)
    for c in _default_c_grid(k):
        X = round(Q**c)
        got = conjectured_values(k, Q, X, base, tilde, phi).prediction_exact_q
        want = _exact_q_per_modulus(k, Q, X, base, phi)
        assert abs(got - want) <= 3.4e-15 * want, (k, Q, X)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=50, max_value=400))
def test_sharp_variance_nonnegative(q, X):
    t = sieve_dk(2, 400)
    assert sharp_variance(t, q, X) >= 0
