"""Reference values of d_k(n) that `sieve_dk` is checked against.

`harmonic_tables` builds d_k by iterated Dirichlet convolution:
d_k = 1 * d_{k-1}, and each fold is the harmonic double loop
d_k(a b) += d_{k-1}(b), vectorised over b for each a <= x_max.  This costs
O(k x_max log x_max) with x_max Python iterations per fold, and shares no
arithmetic with `divvar.sieve.sieve_dk` (no primes, no binomials).

`factorize` (trial division) and `dk_single` (per-prime binomials) give
single values: d_k(n) beyond a harmonic table, and the primes p | q of
the a_k(q) reference.

`v2_file` writes a table in the cache format that version 3 replaced, for
the tests that a version-2 file is rejected and rebuilt.
"""

import math
import struct
import zlib

import numpy as np


def harmonic_tables(k_max, x_max):
    """[d_1, ..., d_{k_max}] on 0..x_max as uint64 arrays, entry 0 being 0."""
    cur = np.ones(x_max + 1, dtype=np.uint64)
    cur[0] = 0
    tables = [cur]
    for _ in range(k_max - 1):
        nxt = np.zeros(x_max + 1, dtype=np.uint64)
        for a in range(1, x_max + 1):
            nxt[a::a] += cur[1 : x_max // a + 1]
        cur = nxt
        tables.append(cur)
    return tables


def factorize(n):
    """Prime factorization of n >= 1 by trial division, as (prime, exponent) pairs.

    Primes come in increasing order; factorize(1) is empty, and n is prime
    exactly when factorize(n) == [(n, 1)].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def dk_single(k, n):
    """Exact d_k(n) by factorization and per-prime binomials.

    Uses d_k(p^l) = C(l + k - 1, k - 1) and multiplicativity.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return math.prod(math.comb(e + k - 1, k - 1) for _, e in factorize(n))


def v2_file(table):
    """A version-2 cache file of a full table: magic, version 2, crc32 of
    (k, x_max) and the values, then k, x_max and uint64 d_k(1..x_max)."""
    shape = struct.pack("<QQ", table.k, table.x_max)
    raw = table.values.astype("<u8").tobytes()
    crc = zlib.crc32(raw, zlib.crc32(shape))
    return struct.pack("<8sII", b"DIVVARdk", 2, crc) + shape + raw
