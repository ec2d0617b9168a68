"""Multiplicative functions on a window by one prime-power sieve; d_k tables.

`sieve_multiplicative` computes any multiplicative f with local factors
f(p^e) on a window [x_min, x_max]: for each prime p <= sqrt(x_max) with a
multiple in the window it multiplies f(p) into the values at the
multiples of p, and at the multiples of each p^e where f(p^e) differs
from f(p^(e-1)) it divides the old factor out and multiplies the new one
in, one scalar per prime power, with no exponent stored; the p-part is
divided out of a running cofactor as it goes.  What is left of the
cofactor is 1 or a single prime > sqrt(x_max), which contributes f(p).
The work is O(L log log x_max) for a window of length
L = x_max - x_min + 1, plus one step per prime power with a multiple in
it; a full table is the window [1, x_max], and a window of one n costs
what trial division does.  The package's d_k(n) (in uint32 where it
provably fits, else uint64), mu(d) (in int8) and a_k(q) (in float64) all
come from it.

d_k(n) counts ordered k-tuples of positive integers with product n, and
d_k(p^e) = C(e + k - 1, k - 1).  `sieve_dk` sieves it in 9 bytes per n
below 2^32 where d_k fits 32 bits, and stores it in the narrowest
unsigned dtype that holds its maximum: 1 byte per n for d_2 below 1081080
(the least n with 256 divisors), 2 bytes for d_2 up to 10^7 and for d_3
up to 2 * 10^7.

`primes` (a segmented odd-only Eratosthenes sieve, one cache-sized window
of flags at a time) and `sieve_multiplicative` are the package's one prime
sieve and one factoriser.  d_k tables are cached on disk by
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

# Odd integers per window of `primes`: a 512 KiB bool buffer, a quarter
# of the 2 MiB per-core L2 of the machine it was tuned on.  primes(10^7),
# median of 7 runs: 0.060 s unsegmented, 0.035 / 0.021 / 0.019 / 0.018 /
# 0.022 s with windows of 2^16 / 2^18 / 2^19 / 2^20 / 2^21 flags.
_PRIME_WINDOW = 2**19

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
    """All primes <= limit, by a segmented odd-only Eratosthenes sieve.

    Flag i of the sieve stands for the odd n = 2i + 1.  The flags are
    sieved _PRIME_WINDOW at a time in one reused bool buffer, by the odd
    primes of the memoised primes(isqrt(limit)): p crosses off the odd
    multiples from max(p^2, the first in the window) with a stride of p
    flags.  Memoised, and read-only because every caller shares the array.
    """
    if limit < 2:
        none = np.array([], dtype=np.int64)
        none.setflags(write=False)
        return none
    base = primes(math.isqrt(limit))[1:]
    size = (limit + 1) // 2  # the odd n <= limit
    square = base * base // 2  # the flag of p^2
    flags = np.empty(min(_PRIME_WINDOW, size), dtype=bool)
    out = [np.array([2], dtype=np.int64)]
    for lo in range(0, size, _PRIME_WINDOW):
        window = flags[: min(_PRIME_WINDOW, size - lo)]
        window.fill(True)
        if lo == 0:
            window[0] = False  # n = 1
        # the flags of the odd multiples of p are those = (p - 1) / 2 (mod p)
        starts = np.maximum(square, lo + (base // 2 - lo) % base) - lo
        for start, p in zip(starts.tolist(), base.tolist()):
            window[start::p] = False
        out.append(2 * (np.flatnonzero(window) + lo) + 1)
    result = np.concatenate(out)
    result.setflags(write=False)
    return result


def _sieve_dtype(k: int, x_max: int):
    """uint32 where d_k(n) provably fits 32 bits for every n <= x_max, else uint64.

    d_k(n) <= d(n)^(k-1), since C(e + k - 1, k - 1) <= (e + 1)^(k-1), and
    d(n) <= 2 floor(sqrt(n)), since the divisors pair up across sqrt(n).
    """
    return np.uint32 if (2 * math.isqrt(x_max)) ** (k - 1) < 2**32 else np.uint64


def sieve_bytes(k: int, x_min: int, x_max: int) -> int:
    """The bytes sieve_dk allocates for d_k on the window [x_min, x_max].

    Per n: the sieved values (w = 4 or 8 bytes, see _sieve_dtype) and
    then either the cofactors (the itemsize of np.min_scalar_type(x_max))
    with the one-byte mask of those above 1, or the narrowed table, at
    most w bytes a value.  Per prime up to sqrt(x_max), of which there
    are at most isqrt(x_max) // 2 + 1: at most 64 bytes for primes()'s
    memo and the kept primes as an array, a list and Python ints.  And
    4 KiB for array headers and the other Python objects.
    """
    w = np.dtype(_sieve_dtype(k, x_max)).itemsize
    rem = np.min_scalar_type(x_max).itemsize
    per_prime = 64 * (math.isqrt(x_max) // 2 + 1)
    return (x_max - x_min + 1) * (w + max(rem + 1, w)) + per_prime + 2**12


def sieve_multiplicative(x_min: int, x_max: int, local, dtype) -> np.ndarray:
    """f(n) for x_min <= n <= x_max, f multiplicative with f(p^e) = local(p, e).

    For each prime p <= sqrt(x_max) with a multiple in the window, the
    values at the multiples of p are multiplied by local(p, 1), and p is
    divided out of a running cofactor rem(n), which starts at n.  Then
    for e = 2, 3, ... while the window holds a multiple of p^e, p is
    divided out of rem there once more, and where local(p, e) differs
    from local(p, e - 1) the old factor is divided out of the values at
    those multiples (exactly for an integer dtype, by one rounding for a
    float one) and the new one multiplied in.  So local gets ints p and
    e >= 1 and returns a scalar, and no exponent is ever stored.  A
    factor cannot change from 0 to non-zero: ValueError, naming the
    prime power.  Each prime power's first multiple is offset to x_min.
    Afterwards rem(n) is 1 or the one prime factor of n above
    sqrt(x_max), so the values are multiplied by local(rem, 1) wherever
    rem(n) > 1; local gets the whole rem array there and must not warn
    at rem = 1, where its value is masked.  One vectorised filter keeps
    the primes with a multiple in the window, so the work is
    O(L log log x_max) on a window of L = x_max - x_min + 1 values plus
    one step per prime power with a multiple: a full window takes
    pi(sqrt(x_max)) primes, a single n one step per prime factor below
    sqrt(n) and one per power of it that divides n, besides the
    memoised primes(isqrt(x_max)).

    Memory per n of the window: the itemsize of dtype for the values,
    that of np.min_scalar_type(x_max) for rem (4 bytes below 2^32), and
    at the end one byte of mask rem > 1.  MemoryBudgetError, before
    anything is allocated, if the primes up to sqrt(x_max) would need
    more than MEMORY_BUDGET_BYTES (a byte per integer to sieve them, 8
    per prime).
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
    divide = np.floor_divide if vals.dtype.kind in "iu" else np.true_divide
    ps = primes(root)
    for p in ps[x_max // ps * ps >= x_min].tolist():
        at = -(-x_min // p) * p - x_min  # index of the first multiple of p
        factor = local(p, 1)
        vals[at::p] *= factor
        rem[at::p] //= p
        q, e = p * p, 2
        # no multiple of p^e in the window leaves none of p^(e+1) either
        while (at := -(-x_min // q) * q - x_min) < size:
            rem[at::q] //= p
            new = local(p, e)
            if new != factor:
                if factor == 0:
                    raise ValueError(
                        f"local({p}, {e}) = {new} replaces local({p}, {e - 1}) = 0")
                view = vals[at::q]
                divide(view, factor, out=view)
                view *= new
                factor = new
            q, e = q * p, e + 1
    np.multiply(vals, local(rem, 1), out=vals, where=rem > 1)
    return vals


def sieve_dk(k: int, x_max: int, x_min: int = 1) -> DivisorTable:
    """Sieve d_k(n) for x_min <= n <= x_max from d_k(p^e) = C(e + k - 1, k - 1).

    sieve_multiplicative with local(p, e) = C(e + k - 1, k - 1), in uint32
    where _sieve_dtype proves that d_k fits it (every k <= 3 below 2^30,
    k = 4 below 660969) and in uint64 otherwise, then narrowed once to
    np.min_scalar_type(max value).  Memory per n below 2^32: in uint32, 4
    bytes of values, 4 of cofactor and 1 of mask while sieving, then the
    narrowed table beside the values, so 9 bytes; in uint64, 16.  That is
    `sieve_bytes`, checked against MEMORY_BUDGET_BYTES before anything is
    allocated; tracemalloc saw 9.01 bytes per n at k = 3 on
    [398107, 797713] and at k = 2 on [262605, 526210].
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the 64-bit overflow guard (k <= {MAX_K})")
    required = sieve_bytes(k, x_min, x_max)
    if required > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"sieve needs {required} bytes, budget is {MEMORY_BUDGET_BYTES} bytes")
    vals = sieve_multiplicative(
        x_min, x_max, lambda p, e: math.comb(e + k - 1, k - 1), _sieve_dtype(k, x_max))
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
