import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binning_oracle import (
    assert_within_budget,
    delta_binned,
    sharp_variance,
    smooth_variance_Vk,
)

from divvar.constants import a_k_const, a_tilde_k
from divvar.gammapoly import gamma_exact
from divvar import variance
from divvar.sieve import CoverageError, sieve_dk
from divvar.variance import (
    _autocorrelation,
    _divisor_pairs,
    _exact_sums,
    _fft_size,
    _fold_lag_sums,
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


@pytest.mark.parametrize("n", (0, 1, 2, 2**14 - 1, 2**14, 2**14 + 1,
                               8 * 2**14 + 3))
def test_autocorrelation_matches_correlate(n):
    # signed values, so most lags are far smaller than R[0]
    u = np.random.default_rng(n).standard_normal(n)
    got = _autocorrelation(u)
    want = np.correlate(u, u, "full")[n - 1:] if n else np.zeros(0)
    assert got.shape == want.shape == (n,)
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
    assert got.shape == u.shape
    for i, row in enumerate(rows):
        # the padded row's lags: its own, then 0 from n on
        want = np.correlate(u[i], u[i], "full")[u.shape[1] - 1:]
        assert np.all(np.abs(got[i] - want) <= 1e-13 * np.sum(row * row))


def test_lag_sums_match_a_direct_sum():
    # zero-padded rows of lengths 9, 4, 1; row 0's pairs have m = 1, 2, the
    # worst case of the 1.5 * r.size bound: (n - 1)(1 + 1/2) = 12 lags
    rng = np.random.default_rng(5)
    r = np.zeros((3, 9))
    for i, n in enumerate((9, 4, 1)):
        r[i, :n] = rng.standard_normal(n)
    row = np.array([0, 0, 1, 1, 2])
    m = np.array([1, 2, 1, 3, 1])
    count = np.array([8, 4, 3, 1, 1])
    want = [math.fsum(r[i, t * mi] for t in range(1, c + 1))
            for i, mi, c in zip(row.tolist(), m.tolist(), count.tolist())]
    assert np.allclose(_lag_sums(r, row, m, count), want, rtol=1e-14, atol=0)


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
    ms = np.array(ms)
    got = _fold_lag_sums(u, ms)
    r = _autocorrelation(np.ascontiguousarray(u)[None, :])
    want = _lag_sums(r, np.zeros_like(ms), ms, (u.size - 1) // ms)
    assert got.shape == ms.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.sum(u * u))


def _route(monkeypatch, fold):
    """Force every row with lags to fold (fold=True) or to take the FFT
    route; the other route then fails if it is reached."""
    def refuse(*args):
        raise AssertionError("the other route was taken")

    monkeypatch.setattr(variance, "_folds",
                        lambda n, moduli: np.full(np.shape(n), fold))
    monkeypatch.setattr(variance, "_autocorrelation" if fold else "_fold_lag_sums",
                        refuse)


@pytest.mark.parametrize("fold", (True, False))
@pytest.mark.parametrize("k", (2, 3))
def test_each_route_alone_matches_binning_oracle(oracle_tables, psi, phi,
                                                 monkeypatch, k, fold):
    _route(monkeypatch, fold)
    for Q, c in _ORACLE_GRID:
        X = round(Q**c)
        table = oracle_tables[k]
        assert_within_budget(delta_k(table, Q, X, psi, phi),
                             delta_binned(table, Q, X, psi, phi))


def test_route_choice_at_the_benchmark_points(oracle_tables, psi, phi,
                                              monkeypatch):
    # cache-k3's c = 2.8 point: every row with lags folds, the d = 1 row
    # (101 moduli) too; sweep-k2's (1025, 1.8): the d = 1 row (1026 moduli)
    # is autocorrelated by FFT
    choices, rows = [], []
    real = variance._folds

    def folds(n, moduli):
        choices.append((real(n, moduli), moduli))
        return choices[-1][0]

    def autocorrelation(u):
        rows.append(u.shape)
        return _autocorrelation(u)

    monkeypatch.setattr(variance, "_folds", folds)
    monkeypatch.setattr(variance, "_autocorrelation", autocorrelation)
    delta_k(oracle_tables[3], 100, round(100**2.8), psi, phi)
    (choice, moduli), = choices
    assert moduli.max() == 101 and np.all(choice[moduli > 0]) and rows == []

    X = round(1025**1.8)
    delta_k(sieve_dk(2, 2 * X, X), 1025, X, psi, phi)
    assert (1, X + 1) in rows


_SWEEP_K2 = [(Q, c) for Q in (1000, 1025, 1049) for c in (0.8, 1.0, 1.2, 1.5, 1.8)]


def test_lag_gathers_stay_within_the_stated_bound(oracle_tables, psi, phi,
                                                  monkeypatch):
    # every _lag_sums call of delta_k gathers at most 1.5 r.size lags, on the
    # oracle grid and the sweep-k2 points
    ratios = []

    def spy(r, row, m, count):
        ratios.append(count.sum() / r.size)
        return _lag_sums(r, row, m, count)

    monkeypatch.setattr(variance, "_lag_sums", spy)
    sweep = sieve_dk(2, 2 * max(round(Q**c) for Q, c in _SWEEP_K2))
    points = [(oracle_tables[k], Q, c) for k in (2, 3) for Q, c in _ORACLE_GRID]
    points += [(sweep, Q, c) for Q, c in _SWEEP_K2]
    for table, Q, c in points:
        delta_k(table, Q, round(Q**c), psi, phi)
    assert ratios and max(ratios) <= 1.5


def _transform_shapes(monkeypatch, table, Q, X, psi, phi):
    """delta_k, and the shape of each array it autocorrelates."""
    shapes = []

    def spy(u):
        shapes.append(u.shape)
        return _autocorrelation(u)

    monkeypatch.setattr(variance, "_autocorrelation", spy)
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


def test_delta_k_memory_peak(psi, phi):
    # beside the 2 MiB window, the d = 1 row's blocked transforms dominate
    table = sieve_dk(2, 2 * 262605)
    delta_k(table, 1025, 262605, psi, phi)  # first call: one-off allocations
    tracemalloc.start()
    try:
        delta_k(table, 1025, 262605, psi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_delta_k_memory_peak_when_rows_fold(psi, phi):
    # every row folds here; a second call peaked at 9.1 MiB, all of it from
    # evaluating psi on the 3 MiB window (16.4 MiB with every row on FFTs)
    X = 398107
    table = sieve_dk(3, 2 * X, X)
    delta_k(table, 100, X, psi, phi)
    tracemalloc.start()
    try:
        delta_k(table, 100, X, psi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


@pytest.mark.parametrize("Q", (10**4, 2 * 10**4))
def test_modulus_bytes_bounds_the_traced_peak(psi, phi, Q):
    # at X = 100 the moduli set the peak: 7.8 MB and 16.2 MB were traced
    # against bounds of 12.9 MB and 25.8 MB
    X = 100
    table = sieve_dk(2, 2 * X, X)
    delta_k(table, Q, X, psi, phi)  # first call: one-off allocations
    peaks = []
    tracemalloc.start()
    try:
        delta_k(table, Q, X, psi, phi)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        conjectured_values(2, Q, X, _BASE, _TILDE, phi=phi)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert sum(peaks) <= variance.modulus_bytes(Q, 2 * Q)


def test_divisor_pairs_sum_mobius_to_the_indicator_of_one():
    # sum_{d | n} mu(d) = [n = 1] for every n <= 10^5 determines mu; the
    # pairs (d, m) with d squarefree are every d | n with mu(d) != 0
    N = 10**5
    d, m, mu = _divisor_pairs(1, N)
    assert set(np.unique(mu).tolist()) == {-1, 1}
    sums = np.bincount(d * m, weights=mu, minlength=N + 1)
    assert sums[1] == 1 and not np.any(sums[2:])
    # q_lo cuts the pairs without changing mu
    d2, m2, mu2 = _divisor_pairs(N // 2, N)
    keep = d * m >= N // 2
    assert np.array_equal(d2, d[keep]) and np.array_equal(m2, m[keep])
    assert np.array_equal(mu2, mu[keep])


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


def test_exact_sums_chunk_and_overflow():
    # 20 squares near 2^60 overflow one int64 sum; 2^40 squared overflows int64
    for ints in ([2**30 - i for i in range(20)], [2**40, 3, 2**32], [], [0, 0]):
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
_TILDE = a_tilde_k(2, 10**5)


def test_prediction_regimes():
    args = (_BASE, _TILDE)
    assert conjectured_values(2, 10**4, 10**6, *args).regime is Regime.THEOREM1_RANGE
    assert conjectured_values(2, 10**8, 2, *args).regime is Regime.SMALL_C
    big_x = int(100 ** 1.98)
    assert conjectured_values(2, 100, big_x, *args).regime is Regime.CONJECTURAL_ONLY


def test_regime_boundaries():
    assert classify_regime(3, 1.0) is Regime.THEOREM1_RANGE
    assert classify_regime(3, 1.7) is Regime.GRH_RANGE  # above (k+2)/k, below 2-d
    assert classify_regime(3, 0.01) is Regime.SMALL_C
    assert classify_regime(3, 1.99) is Regime.CONJECTURAL_ONLY
    # the prediction carries the same tag: k=3 at c = 1.7
    args = (a_k_const(3, 10**5), a_tilde_k(3, 10**5))
    pred = conjectured_values(3, 100, int(round(100**1.7)), *args)
    assert pred.regime is Regime.GRH_RANGE


def test_prediction_small_c_is_diagonal_only():
    p = conjectured_values(2, 10**4, 500, _BASE, _TILDE)
    assert p.prediction_offdiagonal == 0.0
    assert p.prediction_diagonal > 0


def test_prediction_leading_form_value():
    p = conjectured_values(2, 10**4, 10**6, _BASE, _TILDE)
    expect = _TILDE.value * (1 / 48) * 10**4 * 10**6 * math.log(10**4) ** 3
    assert p.prediction_leading == pytest.approx(expect, rel=1e-9)


def test_prediction_gamma3_at_one():
    g3 = gamma_exact(3)
    assert float(g3.eval(1.0)) == 1 / math.factorial(8)


def test_prediction_c_out_of_range_rejected():
    with pytest.raises(ValueError):
        conjectured_values(2, 10, 10**7, _BASE, _TILDE)


def test_exact_q_form_approaches_leading(phi):
    ratios = []
    for Q in (100, 1000, 10000):
        X = int(round(Q**1.3))
        p = conjectured_values(2, Q, X, _BASE, _TILDE, phi=phi)
        ratios.append(p.prediction_exact_q / p.prediction_leading)
    assert abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=50, max_value=400))
def test_sharp_variance_nonnegative(q, X):
    t = sieve_dk(2, 400)
    assert sharp_variance(t, q, X) >= 0
