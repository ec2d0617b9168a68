"""Two reference routes to the secular coefficients I_k(m; N).

Neither expands the k x k Hankel determinant that
divvar.rmt.secular_coefficients uses:

* toeplitz_secular: the Heine identity, i.e. the N x N banded Toeplitz
  determinant of the Fourier coefficients of (1 - x z)^k (1 - 1/z)^k,
  whose entries are integer polynomials in x;
* subset_sum_secular: the Schur-function sum written out, i.e.
  prod_{i<j} (l_i - l_j)^2 / G(k+1)^2 summed over the k-subsets of
  {0, ..., N+k-1}, grouped by sum(l) - k(k-1)/2.  It costs C(N+k, k)
  terms, so it suits small N only.

Both expand their determinants by laplace_det, the memoised Laplace
expansion over sparse_mul products that divvar.gammapoly.poly_det
replaced; the tests keep the pair as poly_det's oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

from divvar.gammapoly import barnes_g


def sparse_mul(a: dict, b: dict) -> dict:
    """Product of two sparse polynomials {int exponent: coeff}; exponents add."""
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0) + ca * cb
    return out


def laplace_det(n: int, entry: Callable[[int, int], dict]) -> dict:
    """Determinant of an n x n matrix over the sparse polynomials of sparse_mul.

    ``entry(i, j)`` returns entry (i, j) as a dict {exponent: coeff} (empty
    or None when zero); products are sparse_mul's and sums are taken
    exponent by exponent.  The Laplace expansion runs along the first
    unused row, so the minor is fixed by its set of remaining columns alone
    and is memoised on that mask: at most 2^n minors, far fewer for a
    banded matrix.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    memo: dict[int, dict] = {}

    def det(cols: int) -> dict:
        row = n - cols.bit_count()
        if cols & (cols - 1) == 0:
            return entry(row, cols.bit_length() - 1) or {}
        cached = memo.get(cols)
        if cached is not None:
            return cached
        total: dict = {}
        sign = 1
        for col in range(n):
            if not cols >> col & 1:
                continue
            e = entry(row, col)
            if e:
                sub = det(cols & ~(1 << col))
                if sub:
                    for key, c in sparse_mul(e, sub).items():
                        total[key] = total.get(key, 0) + sign * c
            sign = -sign
        total = {key: c for key, c in total.items() if c}
        memo[cols] = total
        return total

    return det((1 << n) - 1)


def _symbol_poly_coeffs(k: int) -> dict[int, dict[int, int]]:
    """Fourier coefficients of (1 - x z)^k (1 - 1/z)^k as integer polys in x.

    Returns index j -> {x-degree: coefficient}; nonzero only for |j| <= k.
    """
    out: dict[int, dict[int, int]] = {}
    for i in range(k + 1):  # from (1 - x z)^k: (-x)^i z^i
        for l in range(k + 1):  # from (1 - 1/z)^k: (-1)^l z^-l
            j = i - l
            coeff = (-1) ** (i + l) * math.comb(k, i) * math.comb(k, l)
            out.setdefault(j, {})
            out[j][i] = out[j].get(i, 0) + coeff
    return {j: {d: c for d, c in poly.items() if c} for j, poly in out.items()}


def toeplitz_secular(k: int, N: int) -> tuple[int, ...]:
    """I_k(m; N), m = 0..kN, from the N x N banded Toeplitz determinant.

    The symbol's band structure (entries vanish beyond |i - j| > k) keeps
    the memoised Laplace expansion to O(N * 4^k) distinct column states.
    """
    sym = _symbol_poly_coeffs(k)
    d = laplace_det(N, lambda i, j: sym.get(i - j))
    return tuple(d.get(m, 0) for m in range(k * N + 1))


def subset_sum_secular(k: int, N: int) -> tuple[int, ...]:
    """I_k(m; N), m = 0..kN, as a sum of squared Vandermondes over k-subsets."""
    low = k * (k - 1) // 2
    sums = [0] * (k * N + 1)
    for subset in itertools.combinations(range(N + k), k):
        vdm = 1
        for a, b in itertools.combinations(subset, 2):
            vdm *= b - a
        sums[sum(subset) - low] += vdm * vdm
    norm = barnes_g(k + 1) ** 2
    if any(s % norm for s in sums):
        raise ArithmeticError(f"a subset sum for k={k}, N={N} is not divisible by G(k+1)^2")
    return tuple(s // norm for s in sums)
