"""Euler-product arithmetic constants with certified truncation tails.

The constants multiplying the variance main terms are built from the local
factor

    frak_a_p = sum_{l >= 0} C(k+l-1, k-1)^2 p^{-l} = S(1/p) / (1 - 1/p)^{2k-1},
    S(x) = sum_{j < k} C(k-1, j)^2 x^j,

via a_k = prod_p (1 - 1/p)^{k^2} frak_a_p = prod_p (1 - 1/p)^{(k-1)^2} S(1/p),
its average version a~_k = a_k * prod_p (1 - (1/p)(1 - 1/frak_a_p)), and the
modulus-local a_k(q) = a_k * prod_{p | q} 1/frak_a_p.

Every factor is evaluated in closed form.  Truncating a product at p <= P
drops factors whose logs are at most a constant over p^2 in size; the
constants are proved from elementary inequalities (see _factor_log_bound
and _tilde_log_bound), and sum_{p > P} p^-2 < 1/P turns them into the
certified tail bounds.  a_k(q) comes from one sieve.sieve_multiplicative
over a window of moduli, [q, q] for the `constants` report or [Q, 2Q] for
the exact-q prediction; it inherits a_k's relative truncation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sieve import primes, sieve_multiplicative

DEFAULT_PRIME_LIMIT = 10**6
# The least truncation point P the tail bounds are stated for
MIN_PRIME_LIMIT = 100


@dataclass(frozen=True)
class EulerConstantResult:
    value: float
    tail_bound: float  # certified absolute error of the truncation
    prime_limit: int


def _s_minus_one(k: int, x):
    """S(x) - 1 = sum_{1 <= j < k} C(k-1, j)^2 x^j by Horner, for floats or arrays."""
    u = 0.0 * x
    for j in range(k - 1, 0, -1):
        u = (u + math.comb(k - 1, j) ** 2) * x
    return u


def _frak_a(k: int, x):
    """The local series frak_a_p = sum_l C(k+l-1, k-1)^2 x^l at x = 1/p, in closed form."""
    return (1.0 + _s_minus_one(k, x)) / (1.0 - x) ** (2 * k - 1)


def _factor_logs(k: int, ps: np.ndarray) -> np.ndarray:
    """log of the a_k factor (1 - x)^{(k-1)^2} S(x), x = 1/p, for each prime.

    Both parts go through log1p: the factor is 1 + O(x^2), and forming
    1 + (S(x) - 1) in floating point first would cost up to 1e-16 absolute,
    a large share of the log once p^-2 nears that size.
    """
    x = 1.0 / ps.astype(np.float64)
    return (k - 1) ** 2 * np.log1p(-x) + np.log1p(_s_minus_one(k, x))


def _r_bound(k: int, prime_limit: int) -> float:
    """R = sum_{j>=2} C(k-1, j)^2 P^{2-j}: (S(x) - 1 - (k-1)^2 x) / x^2 <= R for x <= 1/P."""
    return sum(math.comb(k - 1, j) ** 2 * float(prime_limit) ** (2 - j) for j in range(2, k))


def _factor_log_bound(k: int, prime_limit: int) -> float:
    """C with |log((1 - 1/p)^{(k-1)^2} S(1/p))| <= C / p^2 for every p > P.

    Write n = k - 1, x = 1/p < 1/P, and S(x) = 1 + U with
    U = n^2 x + x^2 sum_{j>=2} C(n,j)^2 x^{j-2}, so that
    n^2 x <= U <= n^2 x + R x^2 with R = sum_{j>=2} C(n,j)^2 P^{2-j}.
    For 0 <= x < 1 and u >= 0,

        x + x^2/2 <= -log(1 - x) <= x + x^2 / (2 (1 - x)),
        u - u^2/2 <= log(1 + u) <= u.

    Upper: L = n^2 log(1-x) + log(1+U) <= -n^2 x - n^2 x^2/2 + U <= R x^2.
    Lower: L >= -n^2 x - n^2 x^2/(2(1-x)) + U - U^2/2
              >= -x^2 (n^2 / (2 (1 - 1/P)) + (n^2 + R/P)^2 / 2),
    using U >= n^2 x and U <= x (n^2 + R/P).  So |L| <= C x^2 with

        C = max(R, n^2 / (2 (1 - 1/P)) + (n^2 + R/P)^2 / 2).
    """
    n2 = (k - 1) ** 2
    r = _r_bound(k, prime_limit)
    return max(r, n2 / (2.0 * (1.0 - 1.0 / prime_limit)) + (n2 + r / prime_limit) ** 2 / 2.0)


def _tilde_factor_logs(k: int, ps: np.ndarray) -> np.ndarray:
    """log of the a~_k/a_k factor 1 - x (1 - 1/frak_a_p), x = 1/p, for each prime."""
    x = 1.0 / ps.astype(np.float64)
    return np.log1p(-x * (1.0 - 1.0 / _frak_a(k, x)))


def _tilde_log_bound(k: int, prime_limit: int) -> float:
    """D with 0 <= -log(1 - (1/p)(1 - 1/frak_a_p)) <= D / p^2 for every p > P.

    With x = 1/p < 1/P, n = k - 1 and R as in _factor_log_bound,
    frak_a_p >= 1 and 1 - 1/a <= log a for a >= 1 give

        0 <= 1 - 1/frak_a_p <= log S(x) - (2k-1) log(1-x)
                            <= U + (2k-1) x / (1 - x) <= B x,
        B = n^2 + R/P + (2k-1) / (1 - 1/P),

    using log(1+U) <= U <= x (n^2 + R/P) and -log(1-x) <= x/(1-x).  So
    y = x (1 - 1/frak_a_p) lies in [0, B x^2], and for such y
    -log(1 - y) <= y / (1 - y) <= B x^2 / (1 - B/P^2) =: D x^2.
    """
    n2 = (k - 1) ** 2
    r = _r_bound(k, prime_limit)
    b = n2 + r / prime_limit + (2 * k - 1) / (1.0 - 1.0 / prime_limit)
    return b / (1.0 - b / float(prime_limit) ** 2)


@functools.cache
def a_k_const(k: int, prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerConstantResult:
    """Truncated Euler product for a_k with a certified tail bound.

    The omitted factors have logs of size at most C / p^2
    (_factor_log_bound), and sum_{p > P} p^-2 < 1/P, so the true value is
    value * e^theta with |theta| <= C / P.  Memoised (the result is
    frozen), so a_tilde_k reuses the product its caller already holds.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if prime_limit < MIN_PRIME_LIMIT:
        raise ValueError(
            f"need prime_limit >= {MIN_PRIME_LIMIT}, got {prime_limit}")
    logs = _factor_logs(k, primes(prime_limit))
    value = math.exp(math.fsum(logs.tolist()))
    c = _factor_log_bound(k, prime_limit)
    return EulerConstantResult(value, abs(value) * math.expm1(c / prime_limit), prime_limit)


def a_tilde_k(k: int, prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerConstantResult:
    """Truncated product for the modulus-averaged constant a~_k.

    Relative to the full product the truncation is off by e^theta with
    |theta| <= (C + D) / P: C / P from a_k's omitted factors and D / P from
    the omitted a~_k/a_k factors (_tilde_log_bound).
    """
    base = a_k_const(k, prime_limit)
    logs = _tilde_factor_logs(k, primes(prime_limit))
    value = base.value * math.exp(math.fsum(logs.tolist()))
    theta = (_factor_log_bound(k, prime_limit) + _tilde_log_bound(k, prime_limit)) / prime_limit
    return EulerConstantResult(value, abs(value) * math.expm1(theta), prime_limit)


def a_k_of_q(k: int, q_lo: int, q_hi: int, base: EulerConstantResult) -> np.ndarray:
    """a_k(q) = a_k * prod_{p | q} 1/frak_a_p for q_lo <= q <= q_hi.

    One sieve_multiplicative over the window, with the local factor
    1/frak_a_p = (1 - 1/p)^{2k-1} / S(1/p) at every exponent; that form is
    0, not a division by zero, at the masked cofactor p = 1.  The
    truncation error of `base` carries over relatively: a_k(q) is off by
    at most base.tail_bound * a_k(q) / base.value.
    """
    def local(p, e):
        x = 1.0 / p
        return (1.0 - x) ** (2 * k - 1) / (1.0 + _s_minus_one(k, x))

    return base.value * sieve_multiplicative(q_lo, q_hi, local, np.float64)
