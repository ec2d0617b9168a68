"""Smooth compactly supported cutoff weights.

The variance experiments weight both the summation variable (via a window
``psi(n/X)``) and the modulus average (via ``phi(q/Q)``).  Both weights are
instances of the classical bump

    u -> C * exp(-1 / ((u - lo) * (hi - u)))        on (lo, hi), 0 elsewhere,

which is infinitely differentiable on all of R.  The multiplier C is fixed at
construction so that either the integral of the weight or the integral of its
square equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class Normalization(Enum):
    INTEGRAL_ONE = "integral-one"
    INTEGRAL_OF_SQUARE_ONE = "integral-of-square-one"


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision cannot reach the requested tolerance."""


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"subdivision budget exhausted on [{a}, {b}] (residual {abs(err):.3e})"
        )
    half = 0.5 * tol
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, half, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-12, max_depth: int = 60) -> float:
    """Integrate f over [a, b] to absolute error <= tol by adaptive Simpson.

    Raises QuadratureError if the subdivision budget (max recursion depth)
    is exhausted before the local error estimates fall below tolerance.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, max_depth)


@dataclass(frozen=True)
class SmoothWeight:
    """A normalized standard bump, immutable and safe to share.

    ``norm_constant`` multiplies the raw bump so the declared normalization
    functional evaluates to 1.
    """

    support_lo: float
    support_hi: float
    normalization: Normalization
    norm_constant: float

    def __call__(self, x: float) -> float:
        lo, hi = self.support_lo, self.support_hi
        if x <= lo or x >= hi:
            return 0.0
        return self.norm_constant * math.exp(-1.0 / ((x - lo) * (hi - x)))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; exactly 0 outside the open support."""
        lo, hi = self.support_lo, self.support_hi
        out = np.zeros_like(x, dtype=np.float64)
        inside = (x > lo) & (x < hi)
        xi = x[inside]
        out[inside] = self.norm_constant * np.exp(-1.0 / ((xi - lo) * (hi - xi)))
        return out


def make_bump(lo: float, hi: float, normalization: Normalization,
              tol: float = 1e-12) -> SmoothWeight:
    """Construct a normalized standard bump supported on (lo, hi).

    The normalization constant is computed once, by adaptive quadrature to
    absolute tolerance ``tol``, and cached on the returned weight.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"invalid support: need 0 < lo < hi, got lo={lo}, hi={hi}")
    f = SmoothWeight(lo, hi, normalization, 1.0)
    if normalization is Normalization.INTEGRAL_ONE:
        mass = integrate_adaptive(f, lo, hi, tol)
        c = 1.0 / mass
    elif normalization is Normalization.INTEGRAL_OF_SQUARE_ONE:
        mass = integrate_adaptive(lambda u: f(u) ** 2, lo, hi, tol)
        c = 1.0 / math.sqrt(mass)
    else:  # pragma: no cover
        raise ValueError(f"unknown normalization {normalization!r}")
    return SmoothWeight(lo, hi, normalization, c)

