"""Bulk and single-value computation of the k-fold divisor function d_k.

d_k(n) counts ordered k-tuples of positive integers with product n.  The bulk
sieve computes d_k on 1..x_max by (k-1)-fold Dirichlet convolution with the
constant-one function, each fold a harmonic double loop (vectorized over
strides), for O(k * x_max * log x_max) total work.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

# d_k(n) fits in uint64 for k <= 8 and n <= 10^9; the sieve refuses larger k.
MAX_K = 8

_HEADER = struct.Struct("<QQ")


class MemoryBudgetError(MemoryError):
    def __init__(self, required_bytes: int, budget_bytes: int):
        super().__init__(
            f"sieve needs {required_bytes} bytes, budget is {budget_bytes} bytes"
        )
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


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


def sieve_dk(k: int, x_max: int, memory_budget_bytes: int = 2**34) -> DivisorTable:
    """Sieve d_k(n) for all n <= x_max by iterated divisor-harmonic convolution."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the 64-bit overflow guard (k <= {MAX_K})")
    if x_max < 1:
        raise ValueError(f"need x_max >= 1, got {x_max}")
    required = 2 * 8 * (x_max + 1)
    if required > memory_budget_bytes:
        raise MemoryBudgetError(required, memory_budget_bytes)

    cur = np.ones(x_max + 1, dtype=np.uint64)
    cur[0] = 0
    for _ in range(k - 1):
        nxt = np.zeros(x_max + 1, dtype=np.uint64)
        for a in range(1, x_max + 1):
            nxt[a::a] += cur[1 : x_max // a + 1]
        cur = nxt
    return DivisorTable(k, x_max, cur)


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


def dump_table(table: DivisorTable, path: str) -> None:
    """Binary dump: little-endian (k, x_max) header then raw uint64 values.

    The write is atomic (temp file + rename) so a cache is never left torn.
    """
    with atomic_open(path) as fh:
        fh.write(_HEADER.pack(table.k, table.x_max))
        fh.write(table.values[1:].astype("<u8").tobytes())


def load_table(path: str) -> DivisorTable:
    """Read a dump_table file; ValueError if it is torn or malformed."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        k, x_max = _HEADER.unpack(header)
        raw = np.frombuffer(fh.read(), dtype="<u8")
    if raw.size != x_max:
        raise ValueError(f"{path}: expected {x_max} values, found {raw.size}")
    values = np.zeros(x_max + 1, dtype=np.uint64)
    values[1:] = raw
    return DivisorTable(int(k), int(x_max), values)
