"""Empirical variances of divisor sums in progressions and short intervals.

Provides the sharp-cutoff variance v_k(q;X), the smoothed variance V_k(q;X),
the weighted aggregate Delta_k(Q;X) together with its exact decomposition
into same-residue (A), mean-square (B), diagonal (D) and off-diagonal (G)
pieces, the short-interval variance, and the predicted values for each of
these quantities in the different ranges of c = log X / log Q.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import EulerConstantResult, a_k_of_q, a_k_of_q_bulk
from .gammapoly import PiecewisePolynomial, RationalPolynomial
from .sieve import DivisorTable, factorize
from .weights import Normalization, SmoothWeight


class CoverageError(ValueError):
    """The divisor table does not cover the range a computation needs."""


class Regime(enum.Enum):
    SMALL_C = "SmallC"
    THEOREM1_RANGE = "Theorem1Range"
    GRH_RANGE = "GRHRange"
    CONJECTURAL_ONLY = "ConjecturalOnly"


def classify_regime(k: int, c: float, delta: float) -> Regime:
    """The range of c = log X / log Q that a prediction at (k, c) falls in.

    Theorem-1 range is [delta, (k+2)/k - delta], the GRH-conditional range
    continues up to 2 - delta, c < delta is SmallC, and anything else is
    conjectural only.
    """
    if delta <= c <= (k + 2) / k - delta:
        return Regime.THEOREM1_RANGE
    if delta <= c <= 2 - delta:
        return Regime.GRH_RANGE
    if c < delta:
        return Regime.SMALL_C
    return Regime.CONJECTURAL_ONLY


@dataclass(frozen=True)
class VarianceBreakdown:
    """Delta_k(Q;X) and the pieces it decomposes into.

    Invariants (up to floating-point roundoff): delta = a_term - b_term
    and a_term = d_term + g_term.
    """

    k: int
    Q: int
    X: int
    delta: float
    a_term: float
    b_term: float
    d_term: float
    g_term: float


@dataclass(frozen=True)
class Prediction:
    """Predicted sizes of the variance quantities at parameters (k, Q, X)."""

    k: int
    Q: int
    X: int
    c: float
    regime: Regime
    sharp_prediction: float
    smooth_prediction_exact_q: float
    smooth_prediction_leading: float
    diagonal_prediction: float
    offdiagonal_prediction: float


def _totient(q: int) -> int:
    out = q
    for p, _ in factorize(q):
        out -= out // p
    return out


def _smooth_window(table: DivisorTable, X: int, psi: SmoothWeight):
    """Integers in the support of psi(n/X) with their weighted values.

    Returns (ns, w) where w[i] = d_k(ns[i]) * psi(ns[i]/X).
    """
    lo = int(math.ceil(psi.support_lo * X))
    hi = int(math.floor(psi.support_hi * X))
    if not table.covers(hi):
        raise CoverageError(f"table covers x <= {table.x_max}, need {hi}")
    ns = np.arange(max(lo, 1), hi + 1, dtype=np.int64)
    w = table.values[ns].astype(np.float64) * psi.eval_array(ns / float(X))
    return ns, w


def mean_over_coprime(
    table: DivisorTable,
    q: int,
    weight: Optional[SmoothWeight],
    X: int,
) -> float:
    """(1/phi(q)) * sum over n coprime to q of d_k(n) * w(n/X).

    With weight=None the sharp cutoff n <= X is used instead of a smooth
    weight.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if weight is None:
        if not table.covers(X):
            raise CoverageError(f"table covers x <= {table.x_max}, need {X}")
        ns = np.arange(1, X + 1, dtype=np.int64)
        w = table.values[ns].astype(np.float64)
    else:
        ns, w = _smooth_window(table, X, weight)
    mask = np.gcd(ns, q) == 1
    return float(np.sum(w[mask])) / _totient(q)


def sharp_variance(table: DivisorTable, q: int, X: int) -> float:
    """Variance over coprime residue classes of sum_{n<=X, n=a (q)} d_k(n)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not table.covers(X):
        raise CoverageError(f"table covers x <= {table.x_max}, need {X}")
    ns = np.arange(1, X + 1, dtype=np.int64)
    d = table.values[ns].astype(np.float64)
    class_sums = np.bincount(ns % q, weights=d, minlength=q)
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    s = class_sums[coprime]
    mean = s.sum() / s.size
    return float(np.sum((s - mean) ** 2))


def smooth_variance_Vk(
    table: DivisorTable, q: int, X: int, psi: SmoothWeight
) -> float:
    """V_k(q;X): variance over coprime classes of sum_{n=a (q)} d_k(n)psi(n/X)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if psi.normalization is not Normalization.INTEGRAL_OF_SQUARE_ONE:
        raise ValueError("psi must be normalized to unit square integral")
    ns, w = _smooth_window(table, X, psi)
    class_sums = np.bincount(ns % q, weights=w, minlength=q)
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    s = class_sums[coprime]
    mean = s.sum() / s.size
    return float(np.sum((s - mean) ** 2))


def delta_k(
    table: DivisorTable,
    Q: int,
    X: int,
    psi: SmoothWeight,
    phi: SmoothWeight,
    threads: int = 1,
) -> VarianceBreakdown:
    """Delta_k(Q;X) = sum_q V_k(q;X) Phi(q/Q), with its decomposition.

    Per modulus q the coprime class sums S_a = sum_{n=a (q)} d_k(n)psi(n/X)
    are formed by residue binning; then

        A_q = sum_a S_a^2            (same-residue pairs)
        B_q = |sum_a S_a|^2 / phi(q)  (mean square)
        D_q = sum_{(n,q)=1} d_k(n)^2 psi(n/X)^2  (diagonal m = n)
        G_q = A_q - D_q               (off-diagonal)
        V_q = sum_a (S_a - mean)^2    (direct definition)

    and each is accumulated against Phi(q/Q) with compensated summation.
    The q-loop order is fixed, so results are independent of `threads`.
    """
    if psi.normalization is not Normalization.INTEGRAL_OF_SQUARE_ONE:
        raise ValueError("psi must be normalized to unit square integral")
    if phi.normalization is not Normalization.INTEGRAL_ONE:
        raise ValueError("phi must be normalized to unit integral")
    del threads  # the fixed serial reduction already gives determinism
    ns, w = _smooth_window(table, X, psi)
    w2 = w * w
    q_lo = max(2, int(math.ceil(phi.support_lo * Q)))
    q_hi = int(math.floor(phi.support_hi * Q))
    qs = np.arange(q_lo, q_hi + 1, dtype=np.int64)
    phi_w = phi.eval_array(qs / float(Q))
    parts_v, parts_a, parts_b, parts_d = [], [], [], []
    for q, pw in zip(qs.tolist(), phi_w.tolist()):
        if pw == 0.0:
            continue
        nm = ns % q
        s_all = np.bincount(nm, weights=w, minlength=q)
        t2_all = np.bincount(nm, weights=w2, minlength=q)
        coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        s = s_all[coprime]
        tot = float(s.sum())
        mean = tot / s.size
        parts_v.append(pw * float(np.sum((s - mean) ** 2)))
        parts_a.append(pw * float(np.sum(s * s)))
        parts_b.append(pw * tot * tot / s.size)
        parts_d.append(pw * float(np.sum(t2_all[coprime])))
    a = math.fsum(parts_a)
    b = math.fsum(parts_b)
    d = math.fsum(parts_d)
    return VarianceBreakdown(
        k=table.k,
        Q=Q,
        X=X,
        delta=math.fsum(parts_v),
        a_term=a,
        b_term=b,
        d_term=d,
        g_term=a - d,
    )


def short_interval_variance(table: DivisorTable, X: int, H: int) -> float:
    """Mean-square fluctuation of sum_{x<=n<=x+H} d_k(n) for x in [X, 2X].

    For integer H the window sum is constant on each open interval
    (m, m+1), equal to T(m+H) - T(m) with T the partial-sum function of
    d_k; the x-integral is therefore evaluated exactly, piece by piece,
    in integer arithmetic.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    if not table.covers(2 * X + H):
        raise CoverageError(
            f"table covers x <= {table.x_max}, need {2 * X + H}"
        )
    prefix = np.concatenate(
        ([0], np.cumsum(table.values[1 : 2 * X + H + 1], dtype=np.uint64))
    )
    ms = np.arange(X, 2 * X, dtype=np.int64)
    window = prefix[ms + H] - prefix[ms]
    total = int(np.sum(window, dtype=np.uint64))
    total_sq = int(np.sum(window.astype(object) * window.astype(object)))
    # exact: (1/X) sum S_m^2 - ((1/X) sum S_m)^2 over the X unit pieces
    return (X * total_sq - total * total) / float(X) ** 2


def _gamma_or_zero(gamma: PiecewisePolynomial, c: float) -> float:
    if c <= 0.0 or c >= gamma.k:
        return 0.0
    return gamma.eval_float(c)


def conjectured_values(
    k: int,
    Q: int,
    X: int,
    base: EulerConstantResult,
    a_tilde: EulerConstantResult,
    gamma: PiecewisePolynomial,
    p_poly: Optional[RationalPolynomial] = None,
    phi: Optional[SmoothWeight] = None,
    delta: float = 0.05,
) -> Prediction:
    """Predicted variance sizes at (k, Q, X), classified by range of c.

    `base` is the Euler product constant a_k, `a_tilde` its diagonal
    variant, `gamma` the exact piecewise density gamma_k and `p_poly` the
    off-diagonal polynomial P_k (required when 1 <= c < 2).  The exact-q
    smooth prediction sum_q a_k(q) X gamma_k(log X/log q) (log q)^{k^2-1}
    Phi(q/Q) is filled in only when `phi` is given.
    """
    c = math.log(X) / math.log(Q)
    if not 0.0 < c < k:
        raise ValueError(f"c = log X/log Q = {c:.6f} outside (0, {k})")
    kk = k * k
    fact = math.factorial(kk - 1)
    scale = Q * X * math.log(Q) ** (kk - 1)
    gamma_c = _gamma_or_zero(gamma, c)
    sharp = a_k_of_q(k, Q, base) * gamma_c * X * math.log(Q) ** (kk - 1)
    leading = a_tilde.value * gamma_c * scale
    diagonal = a_tilde.value * c ** (kk - 1) / fact * scale

    if c < 1.0:
        offdiag = 0.0
    elif c < 2.0:
        if p_poly is None:
            raise ValueError("p_poly is required for 1 <= c < 2")
        offdiag = a_tilde.value * p_poly.eval_float(c) * scale
    else:
        offdiag = float("nan")

    exact_q = float("nan")
    if phi is not None:
        q_lo = max(2, int(math.ceil(phi.support_lo * Q)))
        q_hi = int(math.floor(phi.support_hi * Q))
        aq = a_k_of_q_bulk(k, q_hi, base)
        log_x = math.log(X)
        parts = []
        for q in range(q_lo, q_hi + 1):
            pw = phi(q / Q)
            if pw == 0.0:
                continue
            lq = math.log(q)
            g = _gamma_or_zero(gamma, log_x / lq)
            parts.append(aq[q] * X * g * lq ** (kk - 1) * pw)
        exact_q = math.fsum(parts)

    return Prediction(
        k=k,
        Q=Q,
        X=X,
        c=c,
        regime=classify_regime(k, c, delta),
        sharp_prediction=sharp,
        smooth_prediction_exact_q=exact_q,
        smooth_prediction_leading=leading,
        diagonal_prediction=diagonal,
        offdiagonal_prediction=offdiag,
    )
