"""Bulk and single-value computation of the k-fold divisor function d_k.

d_k(n) counts ordered k-tuples of positive integers with product n.  It is
multiplicative with d_k(p^e) = C(e + k - 1, k - 1), and the bulk sieve
builds it from that: for each prime p <= sqrt(x_max) it marks the exponent
of p on the multiples of p, multiplies in the binomial at that exponent and
divides the p-part out of a running cofactor.  What is left of the cofactor
is 1 or a single prime > sqrt(x_max), which contributes d_k(p) = k.  The
work is O(x_max log log x_max), the same for every k.

`primes` (Eratosthenes) and `factorize` (trial division) are the package's
one prime sieve and one factoriser.  Tables are cached on disk by
`dump_table`/`load_table`, in a checksummed format.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

# d_k(n) fits in uint64 for k <= 8 and n <= 10^9; the sieve refuses larger k.
MAX_K = 8

# sieve_dk refuses, before allocating, a table that needs more than this
MEMORY_BUDGET_BYTES = 2**34

# Cache file: magic, format version, crc32 of (k, x_max) and the values,
# then k and x_max, then the values d_k(1..x_max) as little-endian uint64.
_MAGIC = b"DIVVARdk"
_VERSION = 2
_HEADER = struct.Struct("<8sII")
_SHAPE = struct.Struct("<QQ")


class MemoryBudgetError(MemoryError):
    """The sieve would need more than MEMORY_BUDGET_BYTES."""


@dataclass(frozen=True)
class DivisorTable:
    """Exact values d_k(n) for 1 <= n <= x_max; values[0] is unused (0)."""

    k: int
    x_max: int
    values: np.ndarray  # uint64, length x_max + 1

    def __post_init__(self):
        self.values.setflags(write=False)

    def covers(self, n: int) -> bool:
        return n <= self.x_max


@functools.cache
def primes(limit: int) -> np.ndarray:
    """All primes <= limit, by a vectorized Eratosthenes sieve.

    Memoised, and read-only because every caller shares the array.
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    out = np.nonzero(is_prime)[0].astype(np.int64)
    out.setflags(write=False)
    return out


def sieve_dk(k: int, x_max: int) -> DivisorTable:
    """Sieve d_k(n) for all n <= x_max from d_k(p^e) = C(e + k - 1, k - 1).

    For each prime p <= sqrt(x_max), the exponent e of p in every multiple
    of p is marked into a uint8 array, the table is multiplied there by
    C(e + k - 1, k - 1), and p^e is divided out of a running cofactor
    rem(n), which starts at n.  Afterwards rem(n) is 1 or the one prime
    factor of n above sqrt(x_max), so the table is multiplied by k wherever
    rem(n) > 1.  That is pi(sqrt(x_max)) vectorised steps and
    O(x_max log log x_max) work, whatever k is.

    Memory per n: 8 bytes of uint64 values, the itemsize of
    np.min_scalar_type(x_max) for rem (4 bytes below 2^32), and at p = 2,
    on every other n, one byte of exponent and 8 bytes of gathered
    binomials: about 16.5 bytes per n below 2^32.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the 64-bit overflow guard (k <= {MAX_K})")
    if x_max < 1:
        raise ValueError(f"need x_max >= 1, got {x_max}")
    rem_type = np.min_scalar_type(x_max)
    required = (x_max + 1) * (8 + rem_type.itemsize) + (x_max // 2 + 1) * (1 + 8)
    if required > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"sieve needs {required} bytes, budget is {MEMORY_BUDGET_BYTES} bytes")

    vals = np.ones(x_max + 1, dtype=np.uint64)
    vals[0] = 0
    rem = np.arange(x_max + 1, dtype=rem_type)
    binom = np.array(
        [math.comb(e + k - 1, k - 1) for e in range(x_max.bit_length())],
        dtype=np.uint64,
    )
    exps = np.empty(x_max // 2 + 1, dtype=np.uint8)
    for p in primes(math.isqrt(x_max)).tolist():
        e = exps[: x_max // p]  # e[i] is the exponent of p in (i + 1) p
        e.fill(1)
        rem[p::p] //= p
        q = p * p
        while q <= x_max:
            e[q // p - 1 :: q // p] += 1
            rem[q::q] //= p
            q *= p
        vals[p::p] *= binom[e]
    np.multiply(vals, k, out=vals, where=rem > 1)
    return DivisorTable(k, x_max, vals)


def factorize(n: int) -> list[tuple[int, int]]:
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


def dk_single(k: int, n: int) -> int:
    """Exact d_k(n) by factorization and per-prime binomials.

    Uses d_k(p^l) = C(l + k - 1, k - 1) and multiplicativity.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return math.prod(math.comb(e + k - 1, k - 1) for _, e in factorize(n))


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb"):
    """Open a temp file beside `path`, renamed onto it when the block ends.

    If the block or the rename fails, the temp file is removed and `path`
    is left as it was, so a reader never sees a torn file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _checksum(shape: bytes, raw: bytes) -> int:
    return zlib.crc32(raw, zlib.crc32(shape))


def dump_table(table: DivisorTable, path: str) -> None:
    """Write `table` to `path`: a checksummed header, then raw uint64 values.

    The header holds a magic number, the format version and a crc32 of
    (k, x_max) and the values.  The write is atomic (temp file + rename)
    so a cache is never left torn.
    """
    shape = _SHAPE.pack(table.k, table.x_max)
    raw = table.values[1:].astype("<u8").tobytes()
    with atomic_open(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, _checksum(shape, raw)))
        fh.write(shape)
        fh.write(raw)


def load_table(path: str) -> DivisorTable:
    """Read a dump_table file.

    ValueError if the file is torn, of another format or version, or fails
    its checksum.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = _HEADER.size + _SHAPE.size
    if len(data) < head:
        raise ValueError(f"{path}: truncated header")
    magic, version, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"{path}: not a version-{_VERSION} d_k table")
    k, x_max = _SHAPE.unpack_from(data, _HEADER.size)
    raw = memoryview(data)[head:]
    if len(raw) != 8 * x_max:
        raise ValueError(f"{path}: expected {8 * x_max} value bytes, found {len(raw)}")
    if _checksum(data[_HEADER.size : head], raw) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    values = np.zeros(x_max + 1, dtype=np.uint64)
    values[1:] = np.frombuffer(raw, dtype="<u8")
    return DivisorTable(int(k), int(x_max), values)
