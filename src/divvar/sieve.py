"""Bulk and single-value computation of the k-fold divisor function d_k.

d_k(n) counts ordered k-tuples of positive integers with product n.  It is
multiplicative with d_k(p^e) = C(e + k - 1, k - 1), and the bulk sieve
builds it from that on a window [x_min, x_max]: for each prime
p <= sqrt(x_max) it marks the exponent of p on the multiples of p in the
window, multiplies in the binomial at that exponent and divides the p-part
out of a running cofactor.  What is left of the cofactor is 1 or a single
prime > sqrt(x_max), which contributes d_k(p) = k.  The work is
O(L log log x_max) for a window of length L = x_max - x_min + 1, plus one
step per prime, the same for every k; a full table is the window
[1, x_max].  The values are stored in the narrowest unsigned dtype that
holds their maximum: 1 byte per n for d_2 below 1081080 (the least n with
256 divisors), 2 bytes for d_2 up to 10^7 and for d_3 up to 2 * 10^7.

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

# sieve_dk refuses, before allocating, a window that needs more than this
MEMORY_BUDGET_BYTES = 2**34

# Cache file (format v3): magic, format version, crc32 of the shape and the
# values; the shape (k, x_min, x_max, itemsize); then the values
# d_k(x_min..x_max) as little-endian unsigned integers of that itemsize.
_MAGIC = b"DIVVARdk"
_VERSION = 3
_HEADER = struct.Struct("<8sII")
_SHAPE = struct.Struct("<QQQQ")


class MemoryBudgetError(MemoryError):
    """The sieve would need more than MEMORY_BUDGET_BYTES."""


class CoverageError(ValueError):
    """The divisor table does not cover the range a computation needs."""


@dataclass(frozen=True)
class DivisorTable:
    """Exact values d_k(n) for x_min <= n <= x_max: values[i] = d_k(x_min + i)."""

    k: int
    x_min: int
    x_max: int
    values: np.ndarray  # unsigned integers, length x_max - x_min + 1

    def __post_init__(self):
        self.values.setflags(write=False)

    def covers(self, lo: int, hi: int) -> bool:
        """Whether the table holds every n in [lo, hi]."""
        return self.x_min <= lo and hi <= self.x_max

    def window(self, lo: int, hi: int) -> np.ndarray:
        """d_k(n) for lo <= n <= hi, a view of values; CoverageError if not covered."""
        if not self.covers(lo, hi):
            raise CoverageError(
                f"table covers [{self.x_min}, {self.x_max}], need [{lo}, {hi}]")
        return self.values[lo - self.x_min : hi - self.x_min + 1]


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


def sieve_bytes(x_min: int, x_max: int) -> int:
    """The bytes sieve_dk allocates for the window [x_min, x_max] (see there)."""
    n = x_max - x_min + 1
    return n * (8 + np.min_scalar_type(x_max).itemsize) + (n // 2 + 1) * (1 + 8)


def sieve_dk(k: int, x_max: int, x_min: int = 1) -> DivisorTable:
    """Sieve d_k(n) for x_min <= n <= x_max from d_k(p^e) = C(e + k - 1, k - 1).

    For each prime p <= sqrt(x_max), the exponent e of p in every multiple
    of p in the window is marked into a uint8 array, the values are
    multiplied there by C(e + k - 1, k - 1), and p^e is divided out of a
    running cofactor rem(n), which starts at n.  Each prime power's first
    multiple is offset to x_min, and a prime with no multiple in the window
    is a step that touches nothing.  Afterwards rem(n) is 1 or the one
    prime factor of n above sqrt(x_max), so the values are multiplied by k
    wherever rem(n) > 1.  That is pi(sqrt(x_max)) vectorised steps and
    O(L log log x_max) work on a window of L = x_max - x_min + 1 values,
    whatever k is.

    Memory per n of the window, while sieving: 8 bytes of uint64 values,
    the itemsize of np.min_scalar_type(x_max) for rem (4 bytes below
    2^32), and at p = 2, on every other n, one byte of exponent and 8 bytes
    of gathered binomials: about 16.5 bytes per n below 2^32
    (`sieve_bytes`, checked against MEMORY_BUDGET_BYTES before anything is
    allocated).  The table keeps np.min_scalar_type(max value) per n: the
    values are narrowed once, after sieving.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the 64-bit overflow guard (k <= {MAX_K})")
    if not 1 <= x_min <= x_max:
        raise ValueError(f"need 1 <= x_min <= x_max, got [{x_min}, {x_max}]")
    required = sieve_bytes(x_min, x_max)
    if required > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"sieve needs {required} bytes, budget is {MEMORY_BUDGET_BYTES} bytes")

    size = x_max - x_min + 1
    vals = np.ones(size, dtype=np.uint64)
    rem = np.arange(x_min, x_max + 1, dtype=np.min_scalar_type(x_max))
    binom = np.array(
        [math.comb(e + k - 1, k - 1) for e in range(x_max.bit_length())],
        dtype=np.uint64,
    )
    exps = np.empty(size // 2 + 1, dtype=np.uint8)
    for p in primes(math.isqrt(x_max)).tolist():
        first = -(-x_min // p) * p - x_min  # index of the first multiple of p
        # e[i] is the exponent of p in the multiple at index first + i p
        e = exps[: len(range(first, size, p))]
        e.fill(1)
        rem[first::p] //= p
        q = p * p
        while q <= x_max:
            at = -(-x_min // q) * q - x_min
            e[(at - first) // p :: q // p] += 1
            rem[at::q] //= p
            q *= p
        vals[first::p] *= binom[e]
    np.multiply(vals, k, out=vals, where=rem > 1)
    del rem  # freed before the narrowed copy is allocated
    return DivisorTable(k, x_min, x_max, vals.astype(np.min_scalar_type(vals.max())))


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
    """Write `table` to `path`: a checksummed header, then the raw values.

    The header holds a magic number, the format version, a crc32 of the
    shape and the values, and the shape (k, x_min, x_max, itemsize); the
    values follow in the table's own dtype, little-endian.  The write is
    atomic (temp file + rename) so a cache is never left torn.
    """
    itemsize = table.values.itemsize
    shape = _SHAPE.pack(table.k, table.x_min, table.x_max, itemsize)
    raw = table.values.astype(f"<u{itemsize}", copy=False).tobytes()
    with atomic_open(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, _checksum(shape, raw)))
        fh.write(shape)
        fh.write(raw)


def load_table(path: str) -> DivisorTable:
    """Read a dump_table file.

    ValueError if the file is torn, of another format or version, has an
    itemsize that is not 1, 2, 4 or 8, or fails its checksum.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = _HEADER.size + _SHAPE.size
    if len(data) < head:
        raise ValueError(f"{path}: truncated header")
    magic, version, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"{path}: not a version-{_VERSION} d_k table")
    k, x_min, x_max, itemsize = _SHAPE.unpack_from(data, _HEADER.size)
    if itemsize not in (1, 2, 4, 8) or not 1 <= x_min <= x_max:
        raise ValueError(f"{path}: bad shape {(k, x_min, x_max, itemsize)}")
    raw = memoryview(data)[head:]
    expected = itemsize * (x_max - x_min + 1)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} value bytes, found {len(raw)}")
    if _checksum(data[_HEADER.size : head], raw) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    values = np.frombuffer(data, dtype=f"<u{itemsize}", offset=head)
    return DivisorTable(int(k), int(x_min), int(x_max), values)
