import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sieve_oracle import dk_single, factorize, harmonic_tables, v2_file

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
    # one n takes a step per prime factor below sqrt(n), then its cofactor
    # above sqrt(n) with exponent 1; here f = d_2, f(p^e) = e + 1
    calls = []

    def local(p, e):
        calls.append((p if isinstance(p, int) else p.tolist(),
                      e if isinstance(e, int) else e.tolist()))
        return e + 1

    n = 2**3 * 3 * 10007
    assert sieve_multiplicative(n, n, local, np.int64).tolist() == [16]
    assert calls == [(2, [3]), (3, [1]), ([10007], 1)]


def test_k_out_of_range():
    with pytest.raises(ValueError):
        sieve_dk(0, 10)
    with pytest.raises(ValueError):
        sieve_dk(MAX_K + 1, 10)


def test_memory_budget_enforced():
    # about 33 GB: refused before anything is allocated
    with pytest.raises(MemoryBudgetError):
        sieve_dk(2, 2 * 10**9)
    with pytest.raises(MemoryBudgetError):
        sieve_dk(2, 3 * 10**9, 10**9)
    # the estimate counts the window, not [1, x_max]
    window, full = sieve_bytes(10**9, 2 * 10**9), sieve_bytes(1, 2 * 10**9)
    assert window <= MEMORY_BUDGET_BYTES < full
    assert window == (10**9 + 1) * 12 + (10**9 // 2 + 1) * 9


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


# Peak traced bytes per n of the window, measured on this grid (numpy 2.4,
# Python 3.11): 18.0 to 21.9.  The gate is 10 times the worst of them,
# 220 bytes per n.  A sieve over [1, x_max] needs at least 16.5 bytes for
# each of the 4 * 10^6 n, 66 MB, 6 to 30 times the gate, so it fails.  A
# table kept in uint64 holds 8 bytes per n where uint16 holds 2.
@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("length", (10**4, 5 * 10**4))
def test_sieve_dk_window_memory_peak(k, length):
    x_max = 4 * 10**6
    x_min = x_max - length + 1
    sieve_dk(k, x_max, x_min)  # first call: memoised primes
    tracemalloc.start()
    try:
        table = sieve_dk(k, x_max, x_min)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 22 * length
    assert kept <= 2 * length + 2**12
    assert table.values.nbytes == 2 * length
