"""The off-diagonal polynomial P_k by two routes that `gammapoly.p_k` is checked against.

`p_k_residue` reads P_k off a formal three-variable Laurent-series residue;
`p_k_multinomial` evaluates the closed multinomial-sum expansion.  Neither
uses the Hankel determinant or the Laplace inversion behind
`gammapoly.gamma_exact`, from which `gammapoly.p_k` reads P_k off; they
share only `RationalPolynomial`'s arithmetic.  Both take seconds at
k = 8, where `gammapoly.p_k` takes a fraction of one, so the tests that
use them stop at k = 7.

`poly_mul` and `compose_linear`, the polynomial product and the
substitution c -> alpha + beta c, serve these routes and the symmetry
checks of gamma_k; nothing under src/ needs them.
"""

import math
from fractions import Fraction

from divvar.gammapoly import RationalPolynomial


def poly_mul(a, b):
    """The product of two RationalPolynomials."""
    if not a.coeffs or not b.coeffs:
        return RationalPolynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return RationalPolynomial(out)


def compose_linear(p, alpha, beta):
    """p(alpha + beta c), exactly."""
    shift = RationalPolynomial([Fraction(alpha), Fraction(beta)])
    acc = RationalPolynomial()
    for x in reversed(p.coeffs):
        acc = poly_mul(acc, shift) + RationalPolynomial([x])
    return acc


def _shifted_monomial(t, n, coeff):
    """coeff * (c - t)^n expanded in the monomial basis of c."""
    return RationalPolynomial(
        [coeff * math.comb(n, i) * Fraction(-t) ** (n - i) for i in range(n + 1)])


class MultiSeries:
    """Truncated Laurent series in three formal variables (s1, s2, z).

    Terms map exponent triples to Fraction coefficients; multiplication
    discards terms whose exponents exceed the declared truncation orders.
    """

    __slots__ = ("terms", "orders")

    def __init__(self, terms, orders):
        self.orders = orders
        self.terms = {
            e: c
            for e, c in terms.items()
            if c and all(ei <= oi for ei, oi in zip(e, orders))
        }

    def __mul__(self, other):
        o1, o2, o3 = self.orders
        out = {}
        for (a1, a2, a3), ca in self.terms.items():
            for (b1, b2, b3), cb in other.terms.items():
                e = (a1 + b1, a2 + b2, a3 + b3)
                if e[0] > o1 or e[1] > o2 or e[2] > o3:
                    continue
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiSeries(out, self.orders)

    def coefficient(self, e):
        return self.terms.get(e, Fraction(0))


def p_k_residue(k):
    """Coefficient extraction from the rewritten two-sided residue form.

    Builds F = e^{s1+s2-z} (s1-z)^k (s2-z)^k / (z^{k^2} s1^k s2^k (s1+s2-z)^2)
    as a truncated Laurent series and reads off the polynomial from
    p_k(c) = -sum_w c^w/w! * [s1^-1 s2^-1 z^{-1-w}] F.
    """
    zord = k * k + 2 * k
    orders = (k, k, zord)

    def series(terms):
        return MultiSeries(terms, orders)

    one = Fraction(1)
    e1 = series({(u, 0, 0): Fraction(1, math.factorial(u)) for u in range(k + 1)})
    e2 = series({(0, u, 0): Fraction(1, math.factorial(u)) for u in range(k + 1)})
    ez = series(
        {(0, 0, w): Fraction((-1) ** w, math.factorial(w)) for w in range(zord + 1)}
    )
    b1 = series(
        {(a, 0, k - a): Fraction(math.comb(k, a) * (-1) ** (k - a)) for a in range(k + 1)}
    )
    b2 = series(
        {(0, a, k - a): Fraction(math.comb(k, a) * (-1) ** (k - a)) for a in range(k + 1)}
    )
    # 1/(s1+s2-z)^2 = z^-2 sum_j (j+1) ((s1+s2)/z)^j; j > 2k-2 cannot reach
    # the target s-exponents.
    geo_terms = {}
    for j in range(2 * k - 1):
        for t in range(j + 1):
            e = (t, j - t, -j - 2)
            geo_terms[e] = geo_terms.get(e, Fraction(0)) + (j + 1) * math.comb(j, t) * one
    geo = series(geo_terms)
    shift = series({(-k, -k, -k * k): one})

    f = e1 * e2 * ez * b1 * b2 * geo * shift
    coeffs = []
    for w in range(k * k):
        cw = f.coefficient((-1, -1, -1 - w))
        coeffs.append(-cw / math.factorial(w))
    return RationalPolynomial(coeffs)


def p_k_multinomial(k):
    """Direct evaluation of the closed multinomial-sum expansion of p_k."""
    n = k * k - 1
    total = RationalPolynomial()
    lead = Fraction((-1) ** k, math.factorial(n))
    for a in range(k):
        for b in range(k):
            if a + b > n:
                continue
            m1 = Fraction(
                math.factorial(n),
                math.factorial(a) * math.factorial(b) * math.factorial(n - a - b),
            )
            for alpha in range(k - a):
                for beta in range(k - b):
                    m2 = Fraction(
                        math.factorial(n + alpha + beta),
                        math.factorial(alpha) * math.factorial(beta) * math.factorial(n),
                    )
                    coeff = (
                        lead
                        * (-1) ** (a + b + alpha + beta)
                        * m1
                        * m2
                        * math.comb(k, a + alpha + 1)
                        * math.comb(k, b + beta + 1)
                    )
                    # c^{a+b} (1-c)^{n-a-b}
                    term = _shifted_monomial(1, n - a - b, Fraction((-1) ** (n - a - b)))
                    term = poly_mul(term, _shifted_monomial(0, a + b, coeff))
                    total = total + term
    return total
