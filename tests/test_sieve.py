import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sieve_oracle import harmonic_tables

from divvar.sieve import (
    MAX_K,
    DivisorTable,
    MemoryBudgetError,
    dk_single,
    dump_table,
    factorize,
    load_table,
    sieve_dk,
)


def test_d1_is_identically_one():
    t = sieve_dk(1, 100)
    assert np.all(t.values[1:] == 1)


def test_d2_small_values(table_k2):
    # number of divisors of 1..10
    assert list(table_k2.values[1:11]) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]


def test_dk_at_primes(table_k3):
    for p in (2, 3, 5, 7, 101, 997):
        assert table_k3.values[p] == 3  # d_k(p) = k


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
        assert got.dtype == np.uint64
        assert np.array_equal(got, expect), (k, x_max)


def test_big_table_at_prime_powers_and_large_cofactors():
    for n in (2**19, 3**12, 997**2):
        assert int(_BIG3.values[n]) == dk_single(3, n), n
    # the largest prime factor exceeds sqrt(n), so it is left in the cofactor
    for n in (999983, 2 * 499979, 6 * 166609):
        assert factorize(n)[-1][0] ** 2 > n
        assert int(_BIG3.values[n]) == dk_single(3, n), n


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=2000))
def test_sieve_matches_pointwise(k, n):
    assert int(_SMALL[k].values[n]) == dk_single(k, n)


@given(st.integers(min_value=2, max_value=999), st.integers(min_value=2, max_value=999))
def test_multiplicativity(m, n):
    if math.gcd(m, n) == 1:
        assert int(_BIG3.values[m * n]) == int(_BIG3.values[m]) * int(_BIG3.values[n])


def test_covers(table_k2):
    assert table_k2.covers(50000)
    assert not table_k2.covers(50001)


def test_k_out_of_range():
    with pytest.raises(ValueError):
        sieve_dk(0, 10)
    with pytest.raises(ValueError):
        sieve_dk(MAX_K + 1, 10)


def test_memory_budget_enforced():
    # about 33 GB: refused before anything is allocated
    with pytest.raises(MemoryBudgetError):
        sieve_dk(2, 2 * 10**9)


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


def test_load_table_rejects_damage(tmp_path, table_k2):
    path = tmp_path / "t.bin"
    dump_table(table_k2, str(path))
    good = path.read_bytes()
    old_format = struct.pack("<QQ", 2, table_k2.x_max) + good[-8 * table_k2.x_max :]
    damaged = {
        "old format": old_format,
        "value bit": good[:-1000] + bytes([good[-1000] ^ 1]) + good[-999:],
        "k bit": good[:16] + bytes([good[16] ^ 1]) + good[17:],
        "version": good[:8] + bytes([good[8] ^ 1]) + good[9:],
        "extra value": good + bytes(8),
    }
    for name, data in damaged.items():
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_table(str(path))
