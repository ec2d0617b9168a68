"""Smooth compactly supported cutoff weights.

The variance experiments weight both the summation variable (via a window
``psi(n/X)``) and the modulus average (via ``phi(q/Q)``).  Both weights are
instances of the classical bump

    u -> C * exp(-1 / ((u - lo) * (hi - u)))        on (lo, hi), 0 elsewhere,

which is infinitely differentiable on all of R.  The multiplier C is fixed at
construction so that either the integral of the weight or the integral of its
square equals 1.  `SmoothWeight.sample` samples either weight on the
integers, psi at n/X and phi at q/Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Normalization(Enum):
    INTEGRAL_ONE = "integral-one"
    INTEGRAL_OF_SQUARE_ONE = "integral-of-square-one"


# Trapezoid steps for the normalisation integral over the support
_STEPS = 2**12
# `SmoothWeight.sample` evaluates its grid this many points at a time
_PIECE = 2**16


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

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; exactly 0 outside the open support.

        Computed in place in the returned array, with one temporary:
        (x - lo)(hi - x) is positive exactly inside (lo, hi), and is
        clamped to 0 elsewhere, where -1/0 = -inf gives exp = 0.
        """
        lo, hi = self.support_lo, self.support_hi
        span = np.subtract(hi, x, dtype=np.float64)
        out = np.subtract(x, lo, dtype=np.float64)
        out *= span
        np.fmax(out, 0.0, out=out)  # fmax also sends nan to 0
        with np.errstate(divide="ignore"):
            np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
        out *= self.norm_constant
        return out

    def sample(self, scale: int, least: int):
        """The weight at m/scale for the integers m >= least with m/scale in
        the closed support.

        Returns (first, w): the m are consecutive from `first`, and
        w[i] = self(m/scale) at m = first + i, 0 at an integer end of the
        support.  The grid m/scale is one float array, divided in place and
        then evaluated in place, by `eval_array` on pieces of 2^16 points:
        so w equals `eval_array` on the whole grid, and no integer index
        array or other temporary as long as the window is allocated.
        ValueError if no such m exists.
        """
        first = max(math.ceil(self.support_lo * scale), least)
        last = math.floor(self.support_hi * scale)
        if last < first:
            raise ValueError(f"no integer m >= {least} has m/{scale} in "
                             f"[{self.support_lo}, {self.support_hi}]")
        w = np.arange(first, last + 1, dtype=np.float64)
        w /= scale
        for i in range(0, w.size, _PIECE):
            w[i : i + _PIECE] = self.eval_array(w[i : i + _PIECE])
        return first, w


def make_bump(lo: float, hi: float, normalization: Normalization) -> SmoothWeight:
    """Construct a normalized standard bump supported on (lo, hi).

    The normalization integral is computed once, by the trapezoid rule on
    2^12 equal steps, and cached on the returned weight.  The bump and all
    its derivatives vanish at both ends, so the rule converges faster than
    any power of the step: against mpmath.quad at 40 digits its relative
    error is at most 2e-16 from 2^10 steps on, for (1, 2) and (2, 5) and
    either normalization.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"invalid support: need 0 < lo < hi, got lo={lo}, hi={hi}")
    f = SmoothWeight(lo, hi, normalization, 1.0).eval_array(
        np.linspace(lo, hi, _STEPS + 1))
    step = (hi - lo) / _STEPS  # f is 0 at both ends, so no end corrections
    if normalization is Normalization.INTEGRAL_ONE:
        c = 1.0 / (step * f.sum())
    elif normalization is Normalization.INTEGRAL_OF_SQUARE_ONE:
        c = 1.0 / math.sqrt(step * (f * f).sum())
    else:  # pragma: no cover
        raise ValueError(f"unknown normalization {normalization!r}")
    return SmoothWeight(lo, hi, normalization, c)
