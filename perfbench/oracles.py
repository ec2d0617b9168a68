"""Independent checks of divvar's CLI output.

Nothing here imports divvar: each check recomputes a quantity with its own
arithmetic, so a defect in the layer that produced a row cannot also hide
in the check of that row.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# ----------------------------------------------------------------------------
# Integers: trial division, d_k, totient, Barnes G
# ----------------------------------------------------------------------------

def factor(n):
    """{p: e} with n = prod p^e, by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def d_k(k, n):
    return math.prod(math.comb(e + k - 1, k - 1) for e in factor(n).values())


def totient(q):
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(q).items())


def barnes_g(n):
    """G(n) = prod_{j < n-1} j!."""
    return math.prod(math.factorial(j) for j in range(n - 1))


# ----------------------------------------------------------------------------
# Smooth weights: the bump exp(-1/((u-lo)(hi-u))) on (lo, hi)
# ----------------------------------------------------------------------------

def _bump(u, lo, hi):
    if u <= lo or u >= hi:
        return 0.0
    return math.exp(-1.0 / ((u - lo) * (hi - u)))


@lru_cache(maxsize=None)
def bump_mass(lo, hi, power):
    """Integral of bump^power over (lo, hi) by the trapezoid rule.

    The bump and all its derivatives vanish at both ends, so the trapezoid
    rule converges faster than any power of the step; 2^14 steps are far
    past double precision.
    """
    n = 1 << 14
    step = (hi - lo) / n
    return step * math.fsum(_bump(lo + i * step, lo, hi) ** power for i in range(1, n))


def delta_direct(k, Q, X, psi, phi):
    """Delta_k(Q;X) = sum_q Phi(q/Q) V_k(q;X) from explicit class sums.

    psi and phi are (lo, hi) supports; psi has unit square integral and
    phi unit integral.  V_k(q;X) is taken straight from its definition,
    sum over the phi(q) reduced classes a of (S_a - mean)^2, empty classes
    included.
    """
    c_psi = 1.0 / math.sqrt(bump_mass(*psi, 2))
    c_phi = 1.0 / bump_mass(*phi, 1)
    n_lo = max(1, math.ceil(psi[0] * X))
    n_hi = math.floor(psi[1] * X)
    w = {n: d_k(k, n) * c_psi * _bump(n / float(X), *psi) for n in range(n_lo, n_hi + 1)}
    parts = []
    for q in range(max(2, math.ceil(phi[0] * Q)), math.floor(phi[1] * Q) + 1):
        weight = c_phi * _bump(q / float(Q), *phi)
        if weight == 0.0:
            continue
        sums = {}
        for n, wn in w.items():
            if math.gcd(n, q) == 1:
                sums[n % q] = sums.get(n % q, 0.0) + wn
        classes = totient(q)
        mean = math.fsum(sums.values()) / classes
        spread = [(s - mean) ** 2 for s in sums.values()]
        spread.append((classes - len(sums)) * mean * mean)
        parts.append(weight * math.fsum(spread))
    return math.fsum(parts)


def moduli_with_weight(Q, phi):
    """How many q have Phi(q/Q) != 0, evaluated as divvar's loop does."""
    lo, hi = phi
    qs = np.arange(max(2, math.ceil(lo * Q)), math.floor(hi * Q) + 1) / float(Q)
    inside = qs[(qs > lo) & (qs < hi)]
    return int(np.count_nonzero(np.exp(-1.0 / ((inside - lo) * (hi - inside)))))


def window_length(X, psi):
    return math.floor(psi[1] * X) - max(1, math.ceil(psi[0] * X)) + 1


# ----------------------------------------------------------------------------
# Exact polynomials: ascending lists of Fractions
# ----------------------------------------------------------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p, c):
    return sum((a * c ** i for i, a in enumerate(p)), Fraction(0))


def poly_integral(p, a, b):
    return sum((x * (Fraction(b) ** (i + 1) - Fraction(a) ** (i + 1)) / (i + 1)
                for i, x in enumerate(p)), Fraction(0))


def poly_reflect(p, k):
    """Coefficients of c -> p(k - c)."""
    out = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        for m in range(i + 1):
            out[m] += a * math.comb(i, m) * k ** (i - m) * (-1) ** m
    return _trim(out)


def gamma_integral(pieces):
    """Exact integral of the piecewise polynomial over [0, len(pieces)]."""
    return sum((poly_integral(p, j, j + 1) for j, p in enumerate(pieces)), Fraction(0))


def gamma_mass(k):
    """G(k+1)^2 / G(2k+1), the integral of gamma_k over [0, k]."""
    return Fraction(barnes_g(k + 1) ** 2, barnes_g(2 * k + 1))


def gamma_mirror_ok(k, pieces, j):
    """gamma_k(c) = gamma_k(k - c): piece j is piece k-1-j reflected."""
    return _trim(pieces[j]) == poly_reflect(pieces[k - 1 - j], k)


def p_poly_ok(k, pieces, p_poly):
    """On [1, 2) gamma_k(c) = c^{k^2-1}/(k^2-1)! + P_k(c)."""
    diff = list(pieces[1]) + [Fraction(0)] * (k * k)
    diff[k * k - 1] -= Fraction(1, math.factorial(k * k - 1))
    return _trim(diff) == _trim(p_poly)


def gamma_value(k, pieces, c):
    c = Fraction(c)
    return poly_eval(pieces[min(int(c), k - 1)], c)


def keating_snaith(k, N):
    """The 2k-th moment prod_{j<N} j!(j+2k)!/((j+k)!)^2 of |det(1-g)| on U(N)."""
    f = math.factorial
    return math.prod(Fraction(f(j) * f(j + 2 * k), f(j + k) ** 2) for j in range(N))


# ----------------------------------------------------------------------------
# Euler products from the closed-form local factor
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4)
def prime_list(limit):
    """Primes <= limit by an odd-only sieve."""
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i+1
    odd[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 1)).astype(np.int64)


def _local_poly(k, x):
    """sum_j C(k-1, j)^2 x^j, so frak_a_p = _local_poly(1/p) / (1-1/p)^{2k-1}."""
    return sum(math.comb(k - 1, j) ** 2 * x ** j for j in range(k))


def euler_constants(k, prime_limit, q):
    """(a_k, a~_k, a_k(q)) truncated at primes <= prime_limit."""
    x = 1.0 / prime_list(prime_limit).astype(np.float64)
    poly = _local_poly(k, x)
    a_k = math.exp(math.fsum(((k - 1) ** 2 * np.log1p(-x) + np.log(poly)).tolist()))
    inv_frak = np.exp((2 * k - 1) * np.log1p(-x)) / poly
    a_tilde = a_k * math.exp(math.fsum(np.log1p(-x * (1.0 - inv_frak)).tolist()))
    a_q = a_k
    for p in factor(q):
        a_q *= (1 - 1 / p) ** (2 * k - 1) / _local_poly(k, 1 / p)
    return a_k, a_tilde, a_q


def close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)
