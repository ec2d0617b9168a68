"""Unitary-group averages of products of characteristic polynomials.

Two independent routes to the same Haar averages:

* the Heine identity: the average of prod_j f(e^{i theta_j}) over the
  eigenvalues of a Haar-random N x N unitary equals the N x N Toeplitz
  determinant of the Fourier coefficients of the symbol f;
* the CFKRS autocorrelation formula, a finite subset sum over swapped shift
  sets.

The secular coefficients I_k(m; N) -- the coefficients of the degree-kN
polynomial given by the Haar average of det(1 - x g)^k det(1 - g^{-1})^k --
are computed exactly as integers via a banded Toeplitz determinant with
integer-polynomial entries, and compared against the gamma_k limit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gammapoly import PiecewisePolynomial, laplace_det

# k and N come from the command line; at k = 8, kN = 120 already takes
# about 8 s on a 2-vCPU machine.
KN_BOUND = 120
_SINGULAR_TOL = 1e-12


class SingularShiftError(ValueError):
    """A required pairing alpha*beta = 1 makes a CFKRS factor singular."""

    def __init__(self, alpha: complex, beta: complex):
        super().__init__(f"singular shift pair: alpha={alpha}, beta={beta}")
        self.pair = (alpha, beta)


def symbol_coeffs(A: Sequence[complex], B: Sequence[complex]) -> dict[int, complex]:
    """Laurent coefficients of f(z) = prod_A (1 - a z) * prod_B (1 - b / z).

    Nonzero indices lie in [-|B|, |A|].
    """
    pa = [1.0 + 0.0j]
    for a in A:
        pa = [x + (-a) * y for x, y in zip(pa + [0.0], [0.0] + pa)]
    pb = [1.0 + 0.0j]
    for b in B:
        pb = [x + (-b) * y for x, y in zip(pb + [0.0], [0.0] + pb)]
    out: dict[int, complex] = {}
    for i, ca in enumerate(pa):
        for j, cb in enumerate(pb):
            idx = i - j
            out[idx] = out.get(idx, 0.0) + ca * cb
    return {i: c for i, c in out.items() if c != 0.0}


def haar_average_heine(A: Sequence[complex], B: Sequence[complex], N: int) -> complex:
    """Haar average of prod_A det(1 - a g) prod_B det(1 - b g^{-1}) over U(N).

    Computed as the N x N Toeplitz determinant of the symbol coefficients.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    c = symbol_coeffs(A, B)
    t = np.array(
        [[c.get(i - j, 0.0) for j in range(N)] for i in range(N)], dtype=complex
    )
    return complex(np.linalg.det(t))


def _z_factor(first: Sequence[complex], second: Sequence[complex]) -> complex:
    out = 1.0 + 0.0j
    for a in first:
        for b in second:
            d = 1.0 - a * b
            if abs(d) < _SINGULAR_TOL:
                raise SingularShiftError(a, b)
            out /= d
    return out


def cfkrs_rhs(A: Sequence[complex], B: Sequence[complex], N: int) -> complex:
    """The autocorrelation subset sum over swapped shift sets.

    Each term swaps a subset S of A against an equal-sized subset T of B,
    picks up prod_S a^N prod_T b^N, and pairs the leftover shifts with the
    *inverses* of the swapped ones.  Shift configurations producing a
    singular pairing are rejected rather than regularized.
    """
    if len(A) > 6 or len(B) > 6:
        raise ValueError("shift collections limited to size 6")
    A = list(A)
    B = list(B)
    total = 0.0 + 0.0j
    for r in range(min(len(A), len(B)) + 1):
        for s_idx in itertools.combinations(range(len(A)), r):
            s_set = [A[i] for i in s_idx]
            rest_a = [A[i] for i in range(len(A)) if i not in s_idx]
            for t_idx in itertools.combinations(range(len(B)), r):
                t_set = [B[i] for i in t_idx]
                rest_b = [B[i] for i in range(len(B)) if i not in t_idx]
                if any(abs(v) < _SINGULAR_TOL for v in s_set + t_set):
                    raise SingularShiftError(0.0, 0.0)
                pref = 1.0 + 0.0j
                for v in s_set + t_set:
                    pref *= v**N
                first = rest_a + [1.0 / b for b in t_set]
                second = rest_b + [1.0 / a for a in s_set]
                total += pref * _z_factor(first, second)
    return total


# ----------------------------------------------------------------------------
# Exact secular coefficients
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SecularTable:
    """Exact integer coefficients I_k(m; N), m = 0..kN."""

    k: int
    N: int
    coefficients: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "N": self.N, "coefficients": [str(c) for c in self.coefficients]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SecularTable":
        obj = json.loads(text)
        return SecularTable(obj["k"], obj["N"], tuple(int(c) for c in obj["coefficients"]))


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


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, ca in a.items():
        for j, cb in b.items():
            out[i + j] = out.get(i + j, 0) + ca * cb
    return out


def secular_coefficients(k: int, N: int) -> SecularTable:
    """Exact I_k(m; N) via a banded Toeplitz determinant in polynomial arithmetic.

    The symbol's band structure (entries vanish beyond |i - j| > k) keeps the
    memoized Laplace expansion (gammapoly.laplace_det) to O(N * 4^k)
    distinct column states.
    """
    if k < 1 or N < 1:
        raise ValueError(f"need k, N >= 1, got k={k}, N={N}")
    if k * N > KN_BOUND:
        raise ValueError(f"kN = {k * N} exceeds bound {KN_BOUND}")
    sym = _symbol_poly_coeffs(k)
    d = laplace_det(N, lambda i, j: sym.get(i - j), _poly_mul)
    coeffs = tuple(d.get(m, 0) for m in range(k * N + 1))
    return SecularTable(k, N, coeffs)


def rmt_gamma_deviation(k: int, N: int, gamma: PiecewisePolynomial) -> tuple[float, int]:
    """max_m |I_k(m;N)/N^{k^2-1} - gamma_k(m/N)| and the argmax m.

    The deviation per m is computed in exact rational arithmetic before the
    single final float conversion.
    """
    table = secular_coefficients(k, N)
    power = N ** (k * k - 1)
    best = Fraction(-1)
    best_m = 0
    for m, coeff in enumerate(table.coefficients):
        dev = abs(Fraction(coeff, power) - gamma.eval(Fraction(m, N)))
        if dev > best:
            best = dev
            best_m = m
    return float(best), best_m
