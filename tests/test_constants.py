import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divvar import constants
from divvar.constants import (
    EulerConstantResult,
    _CHUNK_PRIMES,
    _factor_log_bound,
    _factor_logs,
    _inv_frak_a,
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
        assert 1 / _inv_frak_a(1, 1 / p) == pytest.approx(1 / (1 - 1 / p), rel=1e-14)


def test_frak_a_p_matches_series():
    # the defining series, summed far past double precision
    for k in (2, 3, 5, 8):
        for p in (2, 3, 101):
            series = math.fsum(math.comb(k + l - 1, k - 1) ** 2 * float(p) ** -l
                               for l in range(400))
            assert 1 / _inv_frak_a(k, 1 / p) == pytest.approx(series, rel=1e-13)


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


def _unchunked(k, P):
    """a_k and a~_k at P from one fsum over every prime's log at once."""
    ps = primes(P)
    a_k = math.exp(math.fsum(_factor_logs(k, ps).tolist()))
    return a_k, a_k * math.exp(math.fsum(_tilde_factor_logs(k, ps).tolist()))


def _chunk_edges():
    """P with pi(P) one below, at and one above 1 and 2 chunks of primes."""
    ps = primes(10**6)  # pi(ps[i]) = i + 1
    return [int(ps[j * _CHUNK_PRIMES + off - 1]) for j in (1, 2) for off in (-1, 0, 1)]


@pytest.mark.parametrize("k", range(1, 9))
def test_chunked_sums_equal_the_unchunked_formula(k):
    for P in [100, 10**4, *_chunk_edges(), 10**6]:
        base = a_k_const(k, P)
        assert (base.value, a_tilde_k(k, base).value) == _unchunked(k, P), P


@pytest.mark.parametrize("chunk", (1, 7, 1000))
def test_chunk_size_does_not_move_the_constants(chunk, monkeypatch):
    # 1229 primes up to 10^4: chunks of 7 leave a partial one of 4
    monkeypatch.setattr(constants, "_CHUNK_PRIMES", chunk)
    for k in range(1, 9):
        base = a_k_const(k, 10**4)
        assert (base.value, a_tilde_k(k, base).value) == _unchunked(k, 10**4)


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
        t5 = a_tilde_k(k, r5)
        t6 = a_tilde_k(k, r6)
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
    want = np.array([base.value * math.prod(_inv_frak_a(k, 1.0 / p) for p in ps)
                     for ps in _radicals(q_lo, q_hi)])
    assert np.all(np.abs(got - want) <= 1e-15 * want)


# a_3(q)/a_3 for q = 1020 ... 1040, as float.hex, from the sieve that kept
# an exponent array per prime: 1024 = 2^10, 1029 = 3 7^3, and the primes
# 1021, 1031, 1033 and 1039 come from the cofactor
_A3_OF_Q_1020 = (
    "0x1.cd575eff52e05p-15", "0x1.fb82404036048p-1", "0x1.441383be82066p-9",
    "0x1.2c0bed58d36b7p-6", "0x1.3b13b13b13b14p-7", "0x1.258c3942c1d01p-3",
    "0x1.55a1a04639539p-12", "0x1.d27dc1332df93p-2", "0x1.304124023be89p-7",
    "0x1.00899f296233ap-6", "0x1.9b7f6d05b143fp-10", "0x1.fb8d594da42c2p-1",
    "0x1.b98f71423e6a3p-12", "0x1.fb8f8af1e907dp-1", "0x1.d7e2bf8e9fb43p-9",
    "0x1.ac2b3af840e5ep-8", "0x1.200ecd93fe14fp-9", "0x1.07aa7e9207344p-1",
    "0x1.01da1be8303dep-11", "0x1.fb9612f578018p-1", "0x1.ca072169e377fp-11",
)


def test_a_k_of_q_is_pinned_bit_for_bit():
    # the local factor is the same at every exponent, so the sieve never
    # replaces it and each value is one product of the same factors
    got = a_k_of_q(3, 1020, 1040, EulerConstantResult(1.0, 0.0, 10**4))
    assert [float(v).hex() for v in got] == list(_A3_OF_Q_1020)


def test_a_k_of_q_refuses_a_prime_table_past_the_budget():
    # sqrt(q) > MEMORY_BUDGET_BYTES / 9: refused before any allocation
    q = (MEMORY_BUDGET_BYTES // 9 + 1) ** 2
    with pytest.raises(MemoryBudgetError):
        a_k_of_q(2, q, q, a_k_const(2, 100))


def test_mean_of_a_q_approaches_a_tilde():
    base = a_k_const(2, 10**6)
    tilde = a_tilde_k(2, base).value
    errs = []
    for Q in (10**3, 10**4):
        errs.append(abs(float(np.mean(a_k_of_q(2, 1, Q, base))) - tilde))
    assert errs[1] < errs[0]


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=5), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_frak_a_p_exceeds_one(k, p):
    # the local factor is a sum of positive terms starting at 1
    assert 1 / _inv_frak_a(k, 1 / p) > 1.0
