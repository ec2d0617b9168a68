import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divvar.constants import (
    _factor_log_bound,
    _factor_logs,
    _frak_a,
    _tilde_factor_logs,
    _tilde_log_bound,
    a_k_const,
    a_k_of_q,
    a_tilde_k,
    primes,
)
from divvar.sieve import MEMORY_BUDGET_BYTES, MemoryBudgetError
from sieve_oracle import factorize


def test_primes_small():
    assert list(primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@given(st.integers(min_value=1, max_value=500))
def test_is_prime_agrees_with_sieve(n):
    table = set(primes(500).tolist())
    factors = factorize(n)
    assert (factors == [(n, 1)]) == (n in table)
    assert all(p in table for p, _ in factors)
    assert math.prod(p**e for p, e in factors) == n


def test_frak_a_p_k1():
    # k=1: sum of p^-l = geometric series
    for p in (2, 3, 11):
        assert _frak_a(1, 1 / p) == pytest.approx(1 / (1 - 1 / p), rel=1e-14)


def test_frak_a_p_matches_series():
    # the defining series, summed far past double precision
    for k in (2, 3, 5, 8):
        for p in (2, 3, 101):
            series = math.fsum(math.comb(k + l - 1, k - 1) ** 2 * float(p) ** -l
                               for l in range(400))
            assert _frak_a(k, 1 / p) == pytest.approx(series, rel=1e-13)


@pytest.mark.parametrize("k", range(1, 9))
def test_factor_log_bounds_hold(k):
    # every omitted factor beyond P obeys the proved C/p^2 and D/p^2 bounds
    P = 100
    ps = primes(10**6)
    ps = ps[ps > P]
    p2 = ps.astype(np.float64) ** 2
    assert np.all(np.abs(_factor_logs(k, ps)) * p2 <= _factor_log_bound(k, P))
    tilde = -_tilde_factor_logs(k, ps) * p2
    assert np.all(tilde >= 0) and np.all(tilde <= _tilde_log_bound(k, P))


def test_a1_is_one():
    r = a_k_const(1, 10**5)
    assert abs(r.value - 1.0) <= max(r.tail_bound, 1e-12)


def test_a2_matches_basel_constant():
    # the k=2 Euler product collapses to 6/pi^2
    r = a_k_const(2, 10**6)
    assert abs(r.value - 6 / math.pi**2) <= r.tail_bound


def test_stability_across_prime_limits():
    for k in (2, 3):
        r5 = a_k_const(k, 10**5)
        r6 = a_k_const(k, 10**6)
        assert abs(r5.value - r6.value) <= r5.tail_bound + r6.tail_bound
        t5 = a_tilde_k(k, 10**5)
        t6 = a_tilde_k(k, 10**6)
        assert abs(t5.value - t6.value) <= t5.tail_bound + t6.tail_bound


def test_tail_bound_shrinks():
    r5 = a_k_const(2, 10**5)
    r6 = a_k_const(2, 10**6)
    assert r6.tail_bound < r5.tail_bound


def test_a_k_of_q_depends_on_radical_only():
    base = a_k_const(2, 10**6)
    assert a_k_of_q(2, 12, 12, base)[0] == pytest.approx(
        a_k_of_q(2, 6, 6, base)[0], rel=1e-14)
    assert a_k_of_q(2, 1, 1, base)[0] == base.value


def test_bulk_matches_single():
    base = a_k_const(2, 10**6)
    bulk = a_k_of_q(2, 1, 500, base)
    for q in (1, 2, 30, 97, 441, 500):
        assert bulk[q - 1] == pytest.approx(a_k_of_q(2, q, q, base)[0], rel=1e-12)


_A_K_OF_Q_WINDOWS = ((1, 500), (1025, 2050), (46416, 92832),
                     (1, 1), (12, 12), (2**40, 2**40), (10**12 + 39, 10**12 + 39))


@functools.cache
def _radicals(q_lo, q_hi):
    """The primes p | q, by trial division, for q_lo <= q <= q_hi."""
    return [[p for p, _ in factorize(q)] for q in range(q_lo, q_hi + 1)]


@pytest.mark.parametrize("k", (2, 3, 8))
@pytest.mark.parametrize("q_lo, q_hi", _A_K_OF_Q_WINDOWS)
def test_a_k_of_q_matches_factorization(k, q_lo, q_hi):
    # windows of the CLI's exact-q prediction at Q = 1025 and 46416, and
    # single moduli: 1, a prime power past 2^32 and a prime past 10^12
    base = a_k_const(k, 10**5)
    got = a_k_of_q(k, q_lo, q_hi, base)
    assert got.shape == (q_hi - q_lo + 1,)
    want = np.array([base.value * math.prod(1.0 / _frak_a(k, 1.0 / p) for p in ps)
                     for ps in _radicals(q_lo, q_hi)])
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_a_k_of_q_refuses_a_prime_table_past_the_budget():
    # sqrt(q) > MEMORY_BUDGET_BYTES / 9: refused before any allocation
    q = (MEMORY_BUDGET_BYTES // 9 + 1) ** 2
    with pytest.raises(MemoryBudgetError):
        a_k_of_q(2, q, q, a_k_const(2, 100))


def test_mean_of_a_q_approaches_a_tilde():
    base = a_k_const(2, 10**6)
    tilde = a_tilde_k(2, 10**6).value
    errs = []
    for Q in (10**3, 10**4):
        errs.append(abs(float(np.mean(a_k_of_q(2, 1, Q, base))) - tilde))
    assert errs[1] < errs[0]


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=5), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_frak_a_p_exceeds_one(k, p):
    # the local factor is a sum of positive terms starting at 1
    assert _frak_a(k, 1 / p) > 1.0
