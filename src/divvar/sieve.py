"""Multiplicative functions on a window by one prime-power sieve; d_k tables.

`sieve_multiplicative` computes any multiplicative f with local factors
f(p^e) on a window [x_min, x_max]: for each prime p <= sqrt(x_max) with a
multiple in the window it marks the exponent of p on those multiples,
multiplies in f(p^e) and divides the p-part out of a running cofactor.
What is left of the cofactor is 1 or a single prime > sqrt(x_max), which
contributes f(p).  The work is O(L log log x_max) for a window of length
L = x_max - x_min + 1, plus one step per prime kept; a full table is the
window [1, x_max], and a window of one n costs what trial division does.
The package's d_k(n), mu(d) and a_k(q) all come from it.

d_k(n) counts ordered k-tuples of positive integers with product n, and
d_k(p^e) = C(e + k - 1, k - 1).  `sieve_dk` stores it in the narrowest
unsigned dtype that holds its maximum: 1 byte per n for d_2 below 1081080
(the least n with 256 divisors), 2 bytes for d_2 up to 10^7 and for d_3
up to 2 * 10^7.

`primes` (Eratosthenes) and `sieve_multiplicative` are the package's one
prime sieve and one factoriser.  d_k tables are cached on disk by
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


def sieve_multiplicative(x_min: int, x_max: int, local, dtype) -> np.ndarray:
    """f(n) for x_min <= n <= x_max, f multiplicative with f(p^e) = local(p, e).

    For each prime p <= sqrt(x_max) with a multiple in the window, the
    exponent e of p in every such multiple is marked into a uint8 array,
    the values there are multiplied by local(p, e) (p an int, e that
    array), and p^e is divided out of a running cofactor rem(n), which
    starts at n.  Each prime power's first multiple is offset to x_min.
    Afterwards rem(n) is 1 or the one prime factor of n above
    sqrt(x_max), so the values are multiplied by local(rem, 1) wherever
    rem(n) > 1; local gets the whole rem array there and must not warn
    at rem = 1, where its value is masked.  One vectorised filter keeps
    the primes with a multiple in the window, so the work is
    O(L log log x_max) on a window of L = x_max - x_min + 1 values plus
    one step per prime kept: a full window takes pi(sqrt(x_max)) steps,
    a single n one per prime factor below sqrt(n), besides the memoised
    primes(isqrt(x_max)).

    Memory per n of the window: the itemsize of dtype for the values,
    that of np.min_scalar_type(x_max) for rem (4 bytes below 2^32), and
    at p = 2, on every other n, one byte of exponent and the bytes of
    local's result.  MemoryBudgetError, before anything is allocated,
    if the primes up to sqrt(x_max) would need more than
    MEMORY_BUDGET_BYTES (a byte per integer to sieve them, 8 per prime).
    """
    if not 1 <= x_min <= x_max:
        raise ValueError(f"need 1 <= x_min <= x_max, got [{x_min}, {x_max}]")
    root = math.isqrt(x_max)
    if 9 * root > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"the primes up to {root} need more than {MEMORY_BUDGET_BYTES} bytes")
    size = x_max - x_min + 1
    vals = np.ones(size, dtype=dtype)
    rem = np.arange(x_min, x_max + 1, dtype=np.min_scalar_type(x_max))
    exps = np.empty(size // 2 + 1, dtype=np.uint8)
    ps = primes(root)
    for p in ps[x_max // ps * ps >= x_min].tolist():
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
        vals[first::p] *= local(p, e)
    np.multiply(vals, local(rem, 1), out=vals, where=rem > 1)
    return vals


def sieve_dk(k: int, x_max: int, x_min: int = 1) -> DivisorTable:
    """Sieve d_k(n) for x_min <= n <= x_max from d_k(p^e) = C(e + k - 1, k - 1).

    sieve_multiplicative into uint64, the binomials gathered from a table
    by exponent, then narrowed once to np.min_scalar_type(max value).
    Memory per n while sieving: 8 bytes of values, the itemsize of
    np.min_scalar_type(x_max) for rem (4 bytes below 2^32), and at p = 2,
    on every other n, one byte of exponent and 8 bytes of gathered
    binomials: about 16.5 bytes per n below 2^32 (`sieve_bytes`, checked
    against MEMORY_BUDGET_BYTES before anything is allocated).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the 64-bit overflow guard (k <= {MAX_K})")
    required = sieve_bytes(x_min, x_max)
    if required > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"sieve needs {required} bytes, budget is {MEMORY_BUDGET_BYTES} bytes")
    binom = np.array(
        [math.comb(e + k - 1, k - 1) for e in range(x_max.bit_length() + 1)],
        dtype=np.uint64,
    )
    vals = sieve_multiplicative(x_min, x_max, lambda p, e: binom[e], np.uint64)
    return DivisorTable(k, x_min, x_max, vals.astype(np.min_scalar_type(vals.max())))


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
