import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sieve_oracle import dk_single, factorize, harmonic_tables, v2_file

from divvar import sieve
from divvar.sieve import (
    MAX_K,
    MEMORY_BUDGET_BYTES,
    CoverageError,
    DivisorTable,
    MemoryBudgetError,
    dump_table,
    load_table,
    primes,
    sieve_bytes,
    sieve_dk,
    sieve_multiplicative,
)


def test_d1_is_identically_one():
    t = sieve_dk(1, 100)
    assert t.values.size == 100 and np.all(t.values == 1)


def test_d2_small_values(table_k2):
    # number of divisors of 1..10
    assert list(table_k2.values[:10]) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]


def test_dk_at_primes(table_k3):
    for p in (2, 3, 5, 7, 101, 997):
        assert table_k3.values[p - 1] == 3  # d_k(p) = k


def test_dk_single_prime_power():
    # d_k(p^e) = C(e+k-1, k-1)
    assert dk_single(3, 2**4) == math.comb(6, 2)
    assert dk_single(4, 3**5) == math.comb(8, 3)


@functools.cache
def _primes_by_divisor_count(limit):
    """The n <= limit with exactly two divisors, from the harmonic d_2 table."""
    return np.flatnonzero(harmonic_tables(2, limit)[1] == 2)


@pytest.fixture
def fresh_primes():
    # primes is memoised: what a test computes with a patched window must
    # not outlive it, and what earlier tests computed must not stand in
    sieve.primes.cache_clear()
    yield
    sieve.primes.cache_clear()


def _check_primes(limit, oracle):
    got = primes(limit)
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.array_equal(got, oracle[oracle <= limit]), limit


@pytest.mark.parametrize("window", (1, 2, 3, 7))
def test_primes_across_many_windows(window, monkeypatch, fresh_primes):
    # windows of a few odd integers put a window edge next to every limit,
    # every prime square p^2 <= 19^2 and its neighbours included
    monkeypatch.setattr(sieve, "_PRIME_WINDOW", window)
    oracle = _primes_by_divisor_count(19**2 + 2)
    for limit in range(-1, 19**2 + 3):
        _check_primes(limit, oracle)


def test_primes_at_the_real_window_edges(fresh_primes):
    # one window holds the odd n < 2W; 1021 is the largest prime below
    # sqrt(2W), so 1021^2 is the last prime square of the first window
    edge = 2 * sieve._PRIME_WINDOW
    oracle = _primes_by_divisor_count(edge + 2)
    for limit in (edge - 2, edge - 1, edge, edge + 1, edge + 2,
                  1021**2 - 1, 1021**2, 1021**2 + 1):
        _check_primes(limit, oracle)
    assert 1021**2 < edge < 1031**2 and factorize(1021) == [(1021, 1)]


_SMALL = {k: sieve_dk(k, 2000) for k in (1, 2, 3, 4)}
_BIG3 = sieve_dk(3, 10**6)


# 251^2 = 63001 is a prime square: the largest prime p <= sqrt(x_max) has
# p^2 = x_max exactly.
@pytest.mark.parametrize("x_max", (1, 2, 3, 4, 8, 9, 97, 2**10, 3**7, 251**2, 65536))
def test_sieve_matches_harmonic_oracle(x_max):
    for k, expect in enumerate(harmonic_tables(MAX_K, x_max), start=1):
        got = sieve_dk(k, x_max).values
        assert got.dtype == np.min_scalar_type(int(expect.max()))
        assert np.array_equal(got, expect[1:]), (k, x_max)


def test_big_table_at_prime_powers_and_large_cofactors():
    for n in (2**19, 3**12, 997**2):
        assert int(_BIG3.values[n - 1]) == dk_single(3, n), n
    # the largest prime factor exceeds sqrt(n), so it is left in the cofactor
    for n in (999983, 2 * 499979, 6 * 166609):
        assert factorize(n)[-1][0] ** 2 > n
        assert int(_BIG3.values[n - 1]) == dk_single(3, n), n


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2000))
def test_sieve_matches_pointwise(k, n):
    assert int(_SMALL[k].values[n - 1]) == dk_single(k, n)


@given(st.integers(min_value=2, max_value=999), st.integers(min_value=2, max_value=999))
def test_multiplicativity(m, n):
    if math.gcd(m, n) == 1:
        assert int(_BIG3.values[m * n - 1]) == (
            int(_BIG3.values[m - 1]) * int(_BIG3.values[n - 1]))


def test_covers(table_k2):
    assert table_k2.covers(1, 50000)
    assert not table_k2.covers(1, 50001)


def test_window_covers_both_ends():
    t = sieve_dk(2, 300, 100)
    assert t.covers(100, 100) and t.covers(100, 300) and t.covers(150, 200)
    assert not t.covers(99, 99) and not t.covers(99, 300) and not t.covers(100, 301)
    assert list(t.window(100, 102)) == [dk_single(2, n) for n in (100, 101, 102)]
    for lo, hi in ((99, 120), (120, 301), (1, 300)):
        with pytest.raises(CoverageError):
            t.window(lo, hi)


def test_sieve_multiplicative_steps_only_on_primes_with_a_multiple():
    # one n takes a step per prime factor below sqrt(n), asking local for
    # each power of it that divides n, then its cofactor above sqrt(n)
    # with exponent 1; here f = d_2, f(p^e) = e + 1
    calls = []

    def local(p, e):
        assert isinstance(e, int)
        calls.append((p if isinstance(p, int) else p.tolist(), e))
        return e + 1

    n = 2**3 * 3 * 10007
    assert sieve_multiplicative(n, n, local, np.int64).tolist() == [16]
    assert calls == [(2, 1), (2, 2), (2, 3), (3, 1), ([10007], 1)]


def test_a_factor_cannot_turn_from_zero_to_non_zero():
    # a zero cannot be divided out of the values again
    with pytest.raises(ValueError, match=r"local\(2, 2\) = 1 replaces local\(2, 1\) = 0"):
        sieve_multiplicative(1, 100, lambda p, e: 0 if e == 1 else 1, np.int64)
    # a factor that turns to 0 and stays there is fine: mu
    mu = sieve_multiplicative(1, 12, lambda p, e: -1 if e == 1 else 0, np.int8)
    assert mu.tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


# With m = isqrt(x_max), d_k(n) <= d(n)^(k-1) <= (2m)^(k-1) for n <= x_max:
# below 2^32 the sieve runs in uint32.  (2 * 812)^3 < 2^32 <= (2 * 813)^3
# with 813^2 = 660969, and 2 * 11 < 2^(32/7) <= 2 * 12 with 12^2 = 144.
@pytest.mark.parametrize("k, x_min, x_max, width", (
    (4, 660769, 660968, np.uint32),
    (4, 660969, 661169, np.uint64),
    (4, 660868, 661069, np.uint64),       # one window across the switch
    (8, 1, 143, np.uint32),
    (8, 1, 144, np.uint64),
    (8, 100, 200, np.uint64),
    (3, 2**30 - 30, 2**30 - 1, np.uint32),
    (3, 2**30, 2**30 + 30, np.uint64),
))
def test_sieve_width_switch(k, x_min, x_max, width):
    assert sieve._sieve_dtype(k, x_max) is width
    got = sieve_dk(k, x_max, x_min).values
    if x_max <= 200:
        want = harmonic_tables(k, x_max)[-1][x_min:]
    else:
        want = np.array([dk_single(k, n) for n in range(x_min, x_max + 1)], dtype=np.uint64)
    assert np.array_equal(got, want)
    assert got.dtype == np.min_scalar_type(int(want.max()))


def test_k_out_of_range():
    with pytest.raises(ValueError):
        sieve_dk(0, 10)
    with pytest.raises(ValueError):
        sieve_dk(MAX_K + 1, 10)


def test_memory_budget_enforced():
    # about 18 GB, 9 bytes for each of 2 * 10^9 n: refused before anything
    # is allocated
    with pytest.raises(MemoryBudgetError):
        sieve_dk(2, 2 * 10**9)
    with pytest.raises(MemoryBudgetError):
        sieve_dk(2, 3 * 10**9, 10**9)
    # the estimate counts the window, not [1, x_max]
    window, full = sieve_bytes(2, 10**9, 2 * 10**9), sieve_bytes(2, 1, 2 * 10**9)
    assert window <= MEMORY_BUDGET_BYTES < full
    assert window == (10**9 + 1) * 9 + 64 * (44721 // 2 + 1) + 2**12
    # uint64 values from (2 isqrt(x_max))^(k-1) >= 2^32 on
    assert sieve_bytes(4, 10**9, 2 * 10**9) == (10**9 + 1) * 16 + 64 * (44721 // 2 + 1) + 2**12


def test_values_read_only(table_k2):
    with pytest.raises(ValueError):
        table_k2.values[5] = 99


def test_dump_load_roundtrip(tmp_path, table_k2):
    path = str(tmp_path / "t.bin")
    dump_table(table_k2, path)
    back = load_table(path)
    assert back.k == table_k2.k
    assert back.x_max == table_k2.x_max
    assert np.array_equal(back.values, table_k2.values)
    assert isinstance(back, DivisorTable)


# a uint8, a uint16 and a uint32 window, and a full uint16 table
@pytest.mark.parametrize("k, x_min, x_max", (
    (2, 25000, 50000), (3, 398607, 797214), (8, 720000, 721000), (3, 1, 4000)))
def test_v3_roundtrip_keeps_window_and_dtype(tmp_path, k, x_min, x_max):
    table = sieve_dk(k, x_max, x_min)
    path = tmp_path / "t.bin"
    dump_table(table, str(path))
    # 16 header bytes, 32 of shape, then itemsize bytes per n
    assert path.stat().st_size == 48 + table.values.itemsize * (x_max - x_min + 1)
    back = load_table(str(path))
    assert (back.k, back.x_min, back.x_max) == (k, x_min, x_max)
    assert back.values.dtype == table.values.dtype
    assert np.array_equal(back.values, table.values)


def test_load_table_rejects_damage(tmp_path, table_k2):
    path = tmp_path / "t.bin"
    dump_table(table_k2, str(path))
    good = path.read_bytes()
    # shape bytes: k at 16, x_min at 24, x_max at 32, itemsize at 40
    damaged = {
        "old format": v2_file(table_k2),
        "value bit": good[:-1000] + bytes([good[-1000] ^ 1]) + good[-999:],
        "k bit": good[:16] + bytes([good[16] ^ 1]) + good[17:],
        "x_min bit": good[:24] + bytes([good[24] ^ 1]) + good[25:],
        "itemsize": good[:40] + bytes([3]) + good[41:],
        "version": good[:8] + bytes([good[8] ^ 1]) + good[9:],
        "extra value": good + bytes(8),
    }
    for name, data in damaged.items():
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_table(str(path))


@functools.cache
def _oracle(x_max):
    return harmonic_tables(MAX_K, x_max)


def _windows():
    """(x_min, x_max) pairs: the ends 1, 2, p^2, p^2 + 1 and x_max, with p the
    largest sieving prime, windows between prime squares, and windows that
    hold no multiple of some sieving prime."""
    out = []
    for x_max in (4, 9, 97, 1000, 251**2):
        p = int(primes(math.isqrt(x_max))[-1])
        out += [(x_min, x_max) for x_min in sorted({1, 2, p * p, p * p + 1, x_max})
                if x_min <= x_max]
    out += [(49, 121), (121, 169), (155, 164), (241**2, 251**2), (251**2 - 6, 251**2)]
    return out


@pytest.mark.parametrize("x_min, x_max", _windows())
def test_window_matches_harmonic_oracle(x_min, x_max):
    for k, expect in enumerate(_oracle(x_max), start=1):
        got = sieve_dk(k, x_max, x_min)
        assert (got.x_min, got.x_max) == (x_min, x_max)
        assert np.array_equal(got.values, expect[x_min:]), (k, x_min, x_max)


def test_short_windows_miss_some_sieving_primes():
    # these windows of _windows() skip a sieving prime entirely
    for x_min, x_max in ((155, 164), (251**2 - 6, 251**2)):
        assert any(-(-x_min // p) * p > x_max
                   for p in primes(math.isqrt(x_max)).tolist())


@pytest.mark.parametrize("k, x_min, x_max, dtype", (
    (1, 1, 1000, np.uint8),
    (2, 1, 1081079, np.uint8),            # d_2 <= 240 below 1081080
    (2, 1081080, 1081080, np.uint16),     # the least n with 256 divisors
    (3, 398607, 797214, np.uint16),
    (8, 1024, 1024, np.uint16),           # d_8(2^10) = C(17, 7) = 19448
    (8, 720720, 720720, np.uint32),       # 330 * 36 * 8^4 = 48660480
    (8, 719000, 721000, np.uint32),
))
def test_stored_dtype_is_the_narrowest(k, x_min, x_max, dtype):
    values = sieve_dk(k, x_max, x_min).values
    top = int(values.max())
    assert values.dtype == dtype
    assert top <= np.iinfo(dtype).max
    if dtype is not np.uint8:
        # one size narrower would not hold the maximum
        assert top > np.iinfo(np.dtype(f"u{values.itemsize // 2}")).max
    assert top == dk_single(k, x_min + int(values.argmax()))


def _traced_sieve(k, x_min, x_max):
    """sieve_dk's table and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        table = sieve_dk(k, x_max, x_min)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, kept, peak


# Peak traced bytes per n of the window, measured on this grid (numpy 2.4,
# Python 3.11): 9.05 to 9.34, from 4 bytes of values, 4 of cofactor and 1
# of mask per n.  The gate is 10 times the worst of them, 94 bytes per n.
# A sieve over [1, x_max] needs at least 9 bytes for each of the 4 * 10^6
# n, 36 MB, 7.6 to 38 times the gate, so it fails.  A table kept in uint32
# holds 4 bytes per n where uint16 holds 2.
@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("length", (10**4, 5 * 10**4))
def test_sieve_dk_window_memory_peak(k, length):
    x_max = 4 * 10**6
    x_min = x_max - length + 1
    sieve_dk(k, x_max, x_min)  # first call: memoised primes
    table, kept, peak = _traced_sieve(k, x_min, x_max)
    assert peak <= 94 * length
    assert kept <= 2 * length + 2**12
    assert table.values.nbytes == 2 * length


# cache-k3's and sweep-k2's windows [X, 2X + H]: 9.01 to 9.02 bytes per n
# were traced, cold primes included
@pytest.mark.parametrize("k, x_min, x_max", (
    (3, 398107, 2 * 398107 + 1499), (2, 262605, 2 * 262605 + 1000),
    (4, 10**6, 10**6 + 5000), (8, 10**9, 10**9), (2, 1, 1)))
def test_sieve_bytes_bounds_the_traced_peak(k, x_min, x_max, fresh_primes):
    peak = _traced_sieve(k, x_min, x_max)[2]
    assert peak <= sieve_bytes(k, x_min, x_max)
    if k <= 3 and x_max > 1:
        assert peak <= 11 * (x_max - x_min + 1)
