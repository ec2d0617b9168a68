"""Unitary-group averages of products of characteristic polynomials.

Two independent routes to the same Haar averages, both in exact rational
arithmetic (``fractions.Fraction``), so they must agree exactly:

* the Heine identity: the average of prod_j f(e^{i theta_j}) over the
  eigenvalues of a Haar-random N x N unitary equals the N x N Toeplitz
  determinant of the Fourier coefficients of the symbol f, taken by
  gammapoly.poly_det once the coefficients are scaled to integers;
* the CFKRS autocorrelation formula, a finite subset sum over swapped shift
  sets.

The secular coefficients I_k(m; N) -- the coefficients of the degree-kN
polynomial given by the Haar average of det(1 - x g)^k det(1 - g^{-1})^k --
are computed exactly as integers from a k x k Hankel determinant of integer
polynomials (dual Cauchy, Schur orthogonality, the Weyl dimension formula
and Andreief; see secular_coefficients), the discrete twin of the one
behind gammapoly.gamma_exact, and compared against the gamma_k limit.

The Toeplitz and the Hankel determinants and gamma_k's transform share one
determinant, gammapoly.poly_det, over sparse integer polynomials
{int exponent: coeff}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gammapoly import barnes_g, gamma_exact, poly_det

# k and N come from the command line.  On a 2-vCPU machine
# secular_coefficients(8, 60) took 1.9 s and (8, 80), kN = 640, took
# 3.5-3.8 s, within the 4.3 s that (8, 60) took by the Laplace expansion
# poly_det replaced; the cost grows like N^2.2 at fixed k.
KN_BOUND = 640
# cfkrs_rhs sums C(|A|+|B|, |A|) exact rational terms; it accepts at most
# this many shifts on each side.  With |A| = |B| = k and N = 6 one call took
# 0.31 s at k = 6, 1.7 s at k = 7 and 8 s at k = 8 on a 2-vCPU machine.
MAX_SHIFTS = 6


class SingularShiftError(ValueError):
    """A zero shift or a pairing alpha*beta = 1 makes a CFKRS factor singular."""


def symbol_coeffs(A: Sequence[Fraction], B: Sequence[Fraction]) -> dict[int, Fraction]:
    """Laurent coefficients of f(z) = prod_A (1 - a z) * prod_B (1 - b / z).

    Nonzero indices lie in [-|B|, |A|].  The dense product
    z^|B| f(z) = prod_A (1 - a z) * prod_B (z - b) is built one linear
    factor u + v z at a time; each shift is converted by Fraction, so a
    float shift is read as its exact value.
    """
    out = [Fraction(1)]
    for u, v in [(1, -Fraction(a)) for a in A] + [(-Fraction(b), 1) for b in B]:
        out = [u * x + v * y for x, y in zip(out + [0], [0] + out)]
    return {i - len(B): c for i, c in enumerate(out) if c}


def haar_average_heine(A: Sequence[Fraction], B: Sequence[Fraction], N: int) -> Fraction:
    """Haar average of prod_A det(1 - a g) prod_B det(1 - b g^{-1}) over U(N).

    Computed as the N x N Toeplitz determinant of the symbol coefficients:
    they are scaled by the lcm L of their denominators to scalar entries
    {0: L c} of gammapoly.poly_det, whose integer determinant is L^N times
    the average.
    """
    coeffs = symbol_coeffs(A, B)
    lcm = math.lcm(*(c.denominator for c in coeffs.values()))
    entries = {d: {0: c.numerator * (lcm // c.denominator)} for d, c in coeffs.items()}
    det = poly_det(N, lambda i, j: entries.get(i - j))
    return Fraction(det.get(0, 0), lcm**N)


def _z_factor(first: Sequence[Fraction], second: Sequence[Fraction]) -> Fraction:
    out = Fraction(1)
    for a in first:
        for b in second:
            d = 1 - a * b
            if d == 0:
                raise SingularShiftError(f"singular shift pair: alpha={a}, beta={b}")
            out /= d
    return out


def cfkrs_rhs(A: Sequence[Fraction], B: Sequence[Fraction], N: int) -> Fraction:
    """The autocorrelation subset sum over swapped shift sets.

    Each term swaps a subset S of A against an equal-sized subset T of B,
    picks up prod_S a^N prod_T b^N, and pairs the leftover shifts with the
    *inverses* of the swapped ones.  A zero shift, or a shift configuration
    producing a singular pairing, is rejected rather than regularized.
    """
    if len(A) > MAX_SHIFTS or len(B) > MAX_SHIFTS:
        raise ValueError(f"shift collections limited to size {MAX_SHIFTS}")
    A, B = [Fraction(a) for a in A], [Fraction(b) for b in B]
    if 0 in A or 0 in B:
        raise SingularShiftError("zero shift: a swap would invert it")
    total = Fraction(0)
    for r in range(min(len(A), len(B)) + 1):
        for s_idx in itertools.combinations(range(len(A)), r):
            s_set = [A[i] for i in s_idx]
            rest_a = [A[i] for i in range(len(A)) if i not in s_idx]
            for t_idx in itertools.combinations(range(len(B)), r):
                t_set = [B[i] for i in t_idx]
                rest_b = [B[i] for i in range(len(B)) if i not in t_idx]
                pref = Fraction(1)
                for v in s_set + t_set:
                    pref *= v**N
                first = rest_a + [1 / b for b in t_set]
                second = rest_b + [1 / a for a in s_set]
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


def secular_coefficients(k: int, N: int) -> SecularTable:
    """Exact I_k(m; N) from a k x k Hankel determinant of integer polynomials.

    Dual Cauchy: det(1 - x g)^k = sum_lambda s_lambda(-x, ..., -x) s_lambda'(g)
    over partitions lambda in the k x N box, and likewise for
    det(1 - g^{-1})^k at x = 1.  Schur orthogonality on U(N) keeps the
    diagonal pairs, so the average is sum_lambda x^|lambda| s_lambda(1^k)^2.
    Weyl dimension: s_lambda(1^k) = prod_{i<j} (l_i - l_j) / G(k+1) with
    l_i = lambda_i + k - i, a k-subset of {0, ..., N+k-1} with
    sum l = |lambda| + k(k-1)/2.  Andreief: the sum of prod_{i<j} (l_i - l_j)^2
    x^{sum l} over those subsets is det[M_{i+j}(x)]_{i,j<k} with
    M_r(x) = sum_{l=0}^{N+k-1} l^r x^l.  Hence

        sum_m I_k(m; N) x^m = x^{-k(k-1)/2} det[M_{i+j}(x)] / G(k+1)^2.

    poly_det takes the determinant in O(k^3) exact big-int steps at a
    packed point, each on integers of up to about k(N+k) digits of a few
    hundred bits; Bareiss's exact divisions, quadratic in CPython, set the
    cost.  (8, 15) takes about 0.1 s and (8, 60) about 1.9 s on a 2-vCPU
    machine; the N x N banded Toeplitz determinant in
    tests/secular_oracle.py takes about 8 s at (8, 15) there.  The division
    by G(k+1)^2 and the degree range are checked, not assumed.
    """
    if k < 1 or N < 1:
        raise ValueError(f"need k, N >= 1, got k={k}, N={N}")
    if k * N > KN_BOUND:
        raise ValueError(f"kN = {k * N} exceeds bound {KN_BOUND}")
    moments = [{l: l**r for l in range(N + k)} for r in range(2 * k - 1)]
    det = poly_det(k, lambda i, j: moments[i + j])
    low = k * (k - 1) // 2
    if any(not low <= d <= low + k * N for d in det):
        raise ArithmeticError(
            f"Hankel determinant for k={k}, N={N} has degrees outside "
            f"[{low}, {low + k * N}]")
    norm = barnes_g(k + 1) ** 2
    coeffs = []
    for m in range(k * N + 1):
        q, r = divmod(det.get(low + m, 0), norm)
        if r:
            raise ArithmeticError(
                f"coefficient {m} for k={k}, N={N} is not divisible by G(k+1)^2")
        coeffs.append(q)
    return SecularTable(k, N, tuple(coeffs))


def rmt_gamma_deviation(table: SecularTable) -> tuple[float, int]:
    """The relative deviation of the scaled coefficients from gamma_k, and its m.

    That is max_m |I_k(m;N)/N^{k^2-1} - gamma_k(m/N)| / max_m gamma_k(m/N),
    with k and N the table's and m over 0..kN, so the deviation is relative
    to the largest gamma_k on the same grid.  It is computed in exact
    rational arithmetic before the single final float conversion.
    """
    k, N = table.k, table.N
    gamma = gamma_exact(k)
    power = N ** (k * k - 1)
    grid = [gamma.eval(Fraction(m, N)) for m in range(len(table.coefficients))]
    devs = [abs(Fraction(coeff, power) - g) for coeff, g in zip(table.coefficients, grid)]
    best = max(devs)
    return float(best / max(grid)), devs.index(best)
