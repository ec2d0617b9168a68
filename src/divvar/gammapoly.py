"""Exact piecewise polynomials from the unitary-group variance prediction.

gamma_k(c) is the degree k^2-1 piecewise polynomial, with knots at the
integers 0..k, defined by the delta-slice integral of the squared Vandermonde
density over the unit cube, normalized by k! and the square of a Barnes-G
value.  It is computed from its Laplace transform, a k x k Hankel
determinant of moment transforms (Heine/Andreief), taken exactly in
integers and inverted termwise.  Each term e^{-ts} s^{-m} of the transform
is written as one int exponent m (k + 1) + t (a Kronecker substitution), so
that determinant is one of sparse integer-exponent polynomials, taken by
poly_det: fraction-free elimination at a packed point, the one determinant
that also gives rmt's secular coefficients and Heine averages.  No bound on
k is needed here; the CLI caps k at sieve.MAX_K = 8.  The polynomials are
exact rational arithmetic (``fractions.Fraction``), and the inversion sums
integer numerators over one denominator.  ``eval`` takes an int, a
Fraction or a float (read as its exact dyadic value) and returns the exact
Fraction; ``eval_float`` rounds the same exact value once to a float,
without building the Fraction.  ``eval_floats`` evaluates a piecewise
polynomial at every point of an array by float Horner on each piece's
exact expansion about a knot, within a stated a-priori error bound.
Beyond that, floats appear only in the Monte-Carlo oracle.

The off-diagonal polynomial P_k, the part of gamma_k on [1,2) beyond the
diagonal term c^{k^2-1}/(k^2-1)!, is read off gamma_k's first two pieces.

Only what gamma_k, P_k and rmt's determinants use lives here.
Polynomial products and composition, the delta-slice densities of single
monomials and the Laplace-expansion determinant poly_det replaced serve
the tests alone and live in tests/.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np


# Entries per batch of the float64 arrays of gamma_mc_oracle (samples) and
# PiecewisePolynomial.eval_floats (points), so that a batch's arrays
# (128 KiB each) stay in cache.  gamma_mc_oracle at k = 3 on its default
# grid of 6 c at 10^6 samples, median of 5 runs, and the process's peak RSS:
# 0.107 s and 60 MiB with batches of 2^18; 0.093 s, 43 MiB at 2^16; 0.084 s,
# 37 MiB at 2^14; 0.084 s, 36 MiB at 2^12.  The Horner of eval_floats on
# 10^6 points of gamma_2's piece 0, best of 5 on a 2-vCPU x86-64 box (two
# runs): 0.025-0.031 s in one batch; 0.011-0.014 / 0.010-0.014 /
# 0.011-0.016 / 0.015-0.019 s in batches of 2^16 / 2^14 / 2^13 / 2^12.  On
# 10^5 points of gamma_8's piece 0: 4.0-5.0 ms, and 4.2-4.8 / 5.3-5.8 /
# 5.5-6.7 / 6.1-8.4 ms.
_BATCH = 2**14


# ----------------------------------------------------------------------------
# Rational polynomials (dense, ascending degree, trailing zeros trimmed)
# ----------------------------------------------------------------------------

class RationalPolynomial:
    """Dense polynomial over Fraction, with the arithmetic gamma_k and P_k use."""

    __slots__ = ("coeffs", "_den", "_nums")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)
        # coeffs[i] = _nums[i] / _den, over the common denominator
        self._den = math.lcm(*(x.denominator for x in c))
        self._nums = tuple(x.numerator * (self._den // x.denominator) for x in c)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return RationalPolynomial(out)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + RationalPolynomial([-x for x in other.coeffs])

    def _ratio(self, c) -> tuple[int, int]:
        """(num, den) with num/den the exact value at an int, Fraction or float c.

        Horner's rule in integers, at c = p/q: sum_i nums_i p^i q^(n-i) over
        den q^n, with n the degree.  The one exact evaluator; nothing is
        reduced.
        """
        p, q = c.as_integer_ratio()
        acc, q_pow = 0, 1
        for x in reversed(self._nums):
            acc = acc * p + x * q_pow
            q_pow *= q
        return acc * q, self._den * q_pow

    def eval(self, c) -> Fraction:
        """The exact value at an int, Fraction or float c, as one Fraction."""
        return Fraction(*self._ratio(c))

    def eval_float(self, c) -> float:
        """The exact value at c rounded once to a float, == float(eval(c)).

        One int true division, which is correctly rounded, so no Fraction
        (and no gcd) is built.
        """
        num, den = self._ratio(c)
        return num / den

    def integral_over(self, a, b) -> Fraction:
        """Exact definite integral over [a, b]."""
        anti = [Fraction(0)] + [x / (i + 1) for i, x in enumerate(self.coeffs)]
        p = RationalPolynomial(anti)
        return p.eval(b) - p.eval(a)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


# ----------------------------------------------------------------------------
# Many float values at once: Horner about a knot, with an a-priori bound
# ----------------------------------------------------------------------------

def _taylor(poly: RationalPolynomial, c0: int) -> list[float]:
    """The coefficients of poly(c0 + h) in h, ascending, each rounded once.

    The integer numerators are shifted exactly by repeated synthetic
    division (a Taylor shift by the integer c0) over poly's one
    denominator, and each is divided by it once (a correctly rounded int
    true division).
    """
    g = list(poly._nums) or [0]
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] += c0 * g[j + 1]
    return [x / poly._den for x in g]


# ----------------------------------------------------------------------------
# Piecewise polynomials on [0, k] with integer knots
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePolynomial:
    """k polynomial pieces; piece j is valid on [j, j+1), c=k owned by the last."""

    k: int
    pieces: tuple[RationalPolynomial, ...]

    def _piece(self, c) -> RationalPolynomial:
        if c < 0 or c > self.k:
            raise ValueError(f"c={c} outside [0, {self.k}]")
        return self.pieces[min(int(c), self.k - 1)]

    def eval(self, c) -> Fraction:
        return self._piece(c).eval(c)

    def eval_float(self, c) -> float:
        """float(eval(c)), without building the Fraction."""
        return self._piece(c).eval_float(c)

    @functools.cached_property
    def _expansions(self) -> tuple:
        """(c0, coefficients) per piece: its _taylor expansion about the knot
        c0 that eval_floats chooses."""
        out = []
        for j, p in enumerate(self.pieces):
            c0 = j if 2 * j < self.k else j + 1
            out.append((c0, _taylor(p, c0)))
        return tuple(out)

    def eval_floats(self, cs) -> np.ndarray:
        """The value at every c of cs as one float64 array, within a stated bound.

        Piece j is expanded exactly about the knot c0 = j for j < k/2 and
        c0 = j + 1 otherwise, the knot towards the nearer end of [0, k],
        where gamma_k is small and flat.  Then h = c - c0 is exact for every
        c of the piece: c0 = 0, or c0/2 <= c <= 2 c0 (Sterbenz).  Each
        piece is evaluated on all its c at once by float Horner on the
        coefficients a_i of that expansion, each rounded once, so with n
        the piece's degree and u = 2^-53 (Higham, Accuracy and Stability of
        Numerical Algorithms, section 5.1)

            |eval_floats(c) - eval(c)| <= g_{2n+1} sum_i |a_i| |h|^i,
            g_m = m u / (1 - m u).

        The bound ignores underflow: as |h| <= 1, the products that
        underflow near the ends of [0, k] add at most n 2^-1074 to it.  On
        4000 random c per piece, the knots and 200 geometric points near
        each end, for gamma_1 .. gamma_8, no point broke the bound; the
        bound was at most 4.5e-10 of the value, and the error at most
        1.5e-12 of it (k = 5 and 7, middle pieces), 4.6e-15 at k = 8.
        Expanded about the midpoint c0 = j + 1/2 instead, the same random
        c gave relative errors up to 4e+258 and 3795 negative values.  The
        points go _BATCH at a time, so the Horner's arrays stay in cache and
        take no memory per point beyond the result.  Raises ValueError, as
        eval_float does, if any c is outside [0, k].
        """
        cs = np.asarray(cs, dtype=np.float64).reshape(-1)
        outside = ~((cs >= 0) & (cs <= self.k))
        if outside.any():
            raise ValueError(f"c={cs[outside][0]} outside [0, {self.k}]")
        out = np.empty(cs.size)
        for b in range(0, cs.size, _BATCH):
            c = cs[b : b + _BATCH]
            piece = np.minimum(c.astype(np.int64), self.k - 1)
            for j, (c0, coeffs) in enumerate(self._expansions):
                at = np.flatnonzero(piece == j)
                if at.size:
                    h = c[at] - c0
                    value = np.full(h.shape, coeffs[-1])
                    for a in reversed(coeffs[:-1]):
                        value *= h
                        value += a
                    out[b + at] = value
        return out

    def integral(self) -> Fraction:
        return sum(
            (p.integral_over(j, j + 1) for j, p in enumerate(self.pieces)),
            Fraction(0),
        )


# ----------------------------------------------------------------------------
# Barnes G, the determinant and Laplace inversion
# ----------------------------------------------------------------------------

def barnes_g(n: int) -> int:
    """G(n) = 0! * 1! * ... * (n-2)! for n >= 1, so G(1) = G(2) = 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = 1
    for i in range(1, n - 1):
        out *= math.factorial(i)
    return out


def poly_det(n: int, entry: Callable[[int, int], dict]) -> dict:
    """Determinant of an n x n matrix of sparse integer polynomials.

    ``entry(i, j)`` returns entry (i, j) as a dict {int exponent: int coeff}
    (empty or None when zero); the result is such a dict, zeros dropped.
    The one determinant of the package, in four steps:

    * every entry, its exponents shifted down by the least one, is
      evaluated at x = 2^b (Kronecker substitution).  gamma_k's keys start
      at k + 1, and the shift makes gamma_8's elimination a third faster;
    * the integer determinant is taken by fraction-free elimination
      (Bareiss), swapping rows on a zero pivot: O(n^3) exact big-int steps;
    * its coefficients are read back as balanced base-2^b digits;
    * b comes from the entries alone.  Packing is a ring map, so only the
      result's coefficients must fit, |c| < 2^(b-1), and |c| <= ||det||_1
      <= 2^(sum s_j) prod_i sum_j ||a_ij||_1 2^(-s_j) for any column scales
      2^s_j (l1 norms of the coefficients).  s_j is half the bit length of
      ||a_jj||_1, and b is one more than the bit length of the bound:
      b = 151 for gamma_8's Hankel determinant, whose coefficients need 83
      bits, where the unscaled row-sum bound gives 209.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rows = [[entry(i, j) or {} for j in range(n)] for i in range(n)]
    low = min((e for row in rows for a in row for e in a), default=0)
    norms = [[sum(map(abs, a.values())) for a in row] for row in rows]
    scale = [norms[j][j].bit_length() // 2 for j in range(n)]
    top = max(scale)
    bound = math.prod(sum(x << top - s for x, s in zip(row, scale)) for row in norms)
    b = (-(-bound >> n * top - sum(scale))).bit_length() + 1
    m = [[sum(c << b * (e - low) for e, c in a.items()) for a in row] for row in rows]
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:  # swap rows, negating one, so the determinant is kept
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return {}
            m[k], m[swap] = m[swap], [-x for x in m[k]]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    value, digits, half = m[n - 1][n - 1], [], 1 << b - 1
    while value:
        digits.append((value + half & (1 << b) - 1) - half)
        value = value - digits[-1] >> b
    return {n * low + e: d for e, d in enumerate(digits) if d}


# Laplace transforms of functions on [0, k] lie in Z[1/s, e^{-s}].  For a
# product of at most k moment transforms the term coeff * e^{-ts} s^{-m} is
# the sparse term {m (k + 1) + t: coeff}: each factor has t <= 1, so a
# product has t <= k < k + 1 and the shift never carries into m (each factor
# has 1 <= m <= 2k - 1, so k <= m <= k (2k - 1) in gamma_k's transform).

def _moment_transform(k: int, r: int) -> dict:
    """m_r(s) = int_0^1 w^r e^{-sw} dw = r!/s^{r+1} - e^{-s} sum_{j<=r} (r!/j!) s^{j-r-1}.

    Keyed for a product of at most k factors, m (k + 1) + t.
    """
    out = {(r + 1) * (k + 1): math.factorial(r)}
    for j in range(r + 1):
        out[(r + 1 - j) * (k + 1) + 1] = -(math.factorial(r) // math.factorial(j))
    return out


def _invert(k: int, transform: dict, scale: Fraction) -> PiecewisePolynomial:
    """scale times the inverse Laplace transform, as pieces on [0,1), ..., [k-1,k).

    Each key m (k + 1) + t is the term s^{-m} e^{-ts}, inverted termwise to
    (c - t)_+^{m-1}/(m-1)!; piece j is the sum of the terms with shift t <= j.
    The binomial expansions of the terms are summed as integer numerators
    over one denominator, scale's times (top - 1)! with top the largest m,
    so each piece builds its Fractions once.
    """
    top = max((key // (k + 1) for key in transform), default=1)
    den = scale.denominator * math.factorial(top - 1)
    by_shift = [[0] * top for _ in range(k)]
    for key, coeff in transform.items():
        m, t = divmod(key, k + 1)
        if t < k and coeff:
            a = coeff * scale.numerator * (math.factorial(top - 1) // math.factorial(m - 1))
            nums = by_shift[t]
            for i in range(m):
                nums[i] += a * math.comb(m - 1, i) * (-t) ** (m - 1 - i)
    pieces = []
    running = [0] * top
    for nums in by_shift:
        running = [x + y for x, y in zip(running, nums)]
        pieces.append(RationalPolynomial(Fraction(x, den) for x in running))
    return PiecewisePolynomial(k, tuple(pieces))


@functools.cache
def gamma_exact(k: int) -> PiecewisePolynomial:
    """gamma_k as exact rational pieces on [0,1), ..., [k-1,k).

    By the Heine/Andreief identity the Laplace transform of gamma_k is the
    Hankel determinant det[m_{i+j}(s)]_{i,j<k} / G(k+1)^2, with
    m_r(s) = int_0^1 w^r e^{-sw} dw the moment transforms
    (_moment_transform).  Its entries have integer coefficients, so the
    determinant is exact in integers before the single rational inversion.
    The result is immutable (tuples of Fraction), so it is computed once
    per k and process and shared by p_k and every caller.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    moments = [_moment_transform(k, r) for r in range(2 * k - 1)]
    transform = poly_det(k, lambda i, j: moments[i + j])
    return _invert(k, transform, Fraction(1, barnes_g(k + 1) ** 2))


def p_k(k: int) -> RationalPolynomial:
    """The off-diagonal polynomial P_k on [1,2), read off gamma_k.

    Piece 0 of gamma_exact(k) is the diagonal term c^{k^2-1}/(k^2-1)!, and
    on [1,2) gamma_k is that term plus P_k, so P_k = pieces[1] - pieces[0].
    gamma_1 vanishes on [1,2), so P_1 = -1.  Two routes that share no
    arithmetic with the Hankel determinant (a Laurent-series residue and a
    closed multinomial sum) check this in tests/pk_oracle.py.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    pieces = gamma_exact(k).pieces
    on_1_2 = pieces[1] if k > 1 else RationalPolynomial()
    return on_1_2 - pieces[0]


# ----------------------------------------------------------------------------
# Monte-Carlo oracle
# ----------------------------------------------------------------------------

def gamma_mc_oracle(k: int, cs: list[float], samples: int,
                    seed: int) -> list[tuple[float, float]]:
    """Unbiased Monte-Carlo estimates of gamma_k(c), one per c of `cs`.

    Returns (estimate, standard error) for each c, in grid order.  Draws
    k-1 uniforms per sample, sets the last coordinate to c minus their sum
    (conditioning on the delta constraint), and averages the squared
    Vandermonde of the full point whenever that coordinate lands in [0,1].

    The uniforms are drawn once for the whole grid, in batches of
    _BATCH = 2^14 samples by rng.random((b, k-1)) from
    default_rng(seed), so each c sees the samples a one-c call with the
    same seed sees, and its pair is the same.  The batch size sets only
    how the sums are grouped, not which uniforms a sample gets.  Per batch
    the coordinate sum and the squared Vandermonde of the k-1 free
    coordinates, which do not depend on c, are formed once; for each c
    the factors (w_i - last)^2 are multiplied in on the accepted rows
    only.  The estimates at different c therefore share their draws and
    are correlated, as they were when each c drew the same seeded uniforms
    again.  Memory is a few arrays of one batch, whatever `samples` and
    the grid size are: 1.3 MiB of traced allocations at k = 3, where 10^6
    samples on the default grid of 6 c take 0.08 s, and 2.9 MiB at k = 8.
    Every argument is checked before anything is drawn.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    for c in cs:
        if not 0 < c < k:
            raise ValueError(f"need 0 < c < k, got c={c}")
    if samples < 10**4:
        raise ValueError(f"need samples >= 10^4, got {samples}")
    rng = np.random.default_rng(seed)
    norm = 1.0 / (math.factorial(k) * barnes_g(k + 1) ** 2)
    total = [0.0] * len(cs)
    total_sq = [0.0] * len(cs)
    done = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        # row i holds coordinate i of every sample of the batch
        w = np.ascontiguousarray(rng.random((b, k - 1)).T)
        s = w.sum(axis=0)
        free = np.ones(b)
        for i in range(k - 1):
            for j in range(i + 1, k - 1):
                free *= (w[i] - w[j]) ** 2
        for n, c in enumerate(cs):
            last = c - s
            ok = np.flatnonzero((last >= 0.0) & (last <= 1.0))
            last = last[ok]
            vals = free[ok]
            for i in range(k - 1):
                vals *= (w[i, ok] - last) ** 2
            total[n] += float(vals.sum())
            total_sq[n] += float((vals * vals).sum())
        done += b
    out = []
    for t, t_sq in zip(total, total_sq):
        mean = t / samples
        var = max(t_sq / samples - mean * mean, 0.0)
        out.append((mean * norm, math.sqrt(var / samples) * norm))
    return out
