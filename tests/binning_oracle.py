"""Per-modulus residue binning: the reference `delta_k` is checked against.

`_coprime_class_sums` is the one binning route.  On it rest the exact
sharp-cutoff variance v_k(q;X), the smoothed variance V_k(q;X) and
Delta_k(Q;X) binned modulus by modulus, which costs O(Q X).  It shares no
arithmetic with `divvar.variance.delta_k` beyond the weights
w_n = d_k(n) psi(n/X): V_q comes from the direct definition
sum_a (S_a - mean)^2, and the off-diagonal part from G_q = A_q - D_q.
"""

import math
from fractions import Fraction

import numpy as np

from divvar.variance import _exact_sums
from divvar.weights import Normalization
from sieve_oracle import factorize


def _coprime_class_sums(lo, w, q):
    """S_a = sum_{n=a (q)} w_n for each of the phi(q) classes a coprime to q.

    w holds w_n for the consecutive n = lo, lo+1, ...  It is placed in rows
    of length q, padded with zeros, and the columns are summed; numpy sums
    unsigned integers of any width in uint64, so integer values give exact
    integer class sums.  The classes a sharing a prime p | q (trial
    division) are struck out as the multiples of p.
    """
    head = lo % q
    rows = np.zeros(-(-(head + w.size) // q) * q, dtype=w.dtype)
    rows[head : head + w.size] = w
    class_sums = rows.reshape(-1, q).sum(axis=0)
    coprime = np.ones(q, dtype=bool)
    for p, _ in factorize(q):
        coprime[::p] = False
    return class_sums[coprime]


def _weights(table, X, psi):
    """(lo, w) with w[i] = d_k(lo + i) psi((lo + i)/X) on psi's support."""
    lo = max(1, math.ceil(psi.support_lo * X))
    hi = math.floor(psi.support_hi * X)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    w = table.window(lo, hi).astype(np.float64) * psi.eval_array(ns / float(X))
    return lo, w


def sharp_variance(table, q, X):
    """Variance over coprime residue classes of sum_{n<=X, n=a (q)} d_k(n).

    Exact: sum_a S_a^2 - (sum_a S_a)^2 / phi(q) from integer class sums.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    s = _coprime_class_sums(1, table.window(1, X), q)
    total, total_sq = _exact_sums(s)
    return Fraction(s.size * total_sq - total * total, s.size)


def smooth_variance_Vk(table, q, X, psi):
    """V_k(q;X): variance over coprime classes of sum_{n=a (q)} d_k(n)psi(n/X)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if psi.normalization is not Normalization.INTEGRAL_OF_SQUARE_ONE:
        raise ValueError("psi must be normalized to unit square integral")
    s = _coprime_class_sums(*_weights(table, X, psi), q)
    return float(np.sum((s - s.mean()) ** 2))


def delta_binned(table, Q, X, psi, phi):
    """(delta, a_term, b_term, d_term, g_term) of Delta_k(Q;X) by binning."""
    lo, w = _weights(table, X, psi)
    w2 = w * w
    parts_v, parts_a, parts_b, parts_d = [], [], [], []
    qs = np.arange(max(2, math.ceil(phi.support_lo * Q)),
                   math.floor(phi.support_hi * Q) + 1)
    for q, pw in zip(qs.tolist(), phi.eval_array(qs / float(Q)).tolist()):
        if pw == 0.0:
            continue
        s = _coprime_class_sums(lo, w, q)
        tot = float(s.sum())
        parts_v.append(pw * float(np.sum((s - tot / s.size) ** 2)))
        parts_a.append(pw * float(np.sum(s * s)))
        parts_b.append(pw * tot * tot / s.size)
        parts_d.append(pw * float(np.sum(_coprime_class_sums(lo, w2, q))))
    a = math.fsum(parts_a)
    d = math.fsum(parts_d)
    return math.fsum(parts_v), a, math.fsum(parts_b), d, a - d


def assert_within_budget(bd, want):
    """Check a VarianceBreakdown against delta_binned's output.

    The budget stated in `delta_k`: A, B and D to 1e-12 relative, G to
    1e-12 * A absolute, Delta to 1e-14 * A absolute.
    """
    delta, a, b, d, g = want
    assert abs(bd.a_term - a) <= 1e-12 * abs(a)
    assert abs(bd.b_term - b) <= 1e-12 * abs(b)
    assert abs(bd.d_term - d) <= 1e-12 * abs(d)
    assert abs(bd.g_term - g) <= 1e-12 * abs(a)
    assert abs(bd.delta - delta) <= 1e-14 * abs(a)
