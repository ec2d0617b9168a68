"""Delta_k(Q;X) by residue binning: the reference `delta_k` is checked against.

For every modulus q the whole psi-window is binned by n mod q, so this
costs O(Q X).  It shares no arithmetic with `divvar.variance.delta_k`
beyond the weights w_n = d_k(n) psi(n/X): the class sums come from
`np.bincount`, V_q from the direct definition sum_a (S_a - mean)^2, and
the off-diagonal part from G_q = A_q - D_q.
"""

import math

import numpy as np


def delta_binned(table, Q, X, psi, phi):
    """(delta, a_term, b_term, d_term, g_term) of Delta_k(Q;X) by binning."""
    lo = max(1, math.ceil(psi.support_lo * X))
    hi = math.floor(psi.support_hi * X)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    w = table.window(lo, hi).astype(np.float64) * psi.eval_array(ns / float(X))
    w2 = w * w
    parts_v, parts_a, parts_b, parts_d = [], [], [], []
    qs = np.arange(max(2, math.ceil(phi.support_lo * Q)),
                   math.floor(phi.support_hi * Q) + 1)
    for q, pw in zip(qs.tolist(), phi.eval_array(qs / float(Q)).tolist()):
        if pw == 0.0:
            continue
        nm = ns % q
        coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        s = np.bincount(nm, weights=w, minlength=q)[coprime]
        tot = float(s.sum())
        parts_v.append(pw * float(np.sum((s - tot / s.size) ** 2)))
        parts_a.append(pw * float(np.sum(s * s)))
        parts_b.append(pw * tot * tot / s.size)
        parts_d.append(pw * float(np.sum(
            np.bincount(nm, weights=w2, minlength=q)[coprime])))
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
