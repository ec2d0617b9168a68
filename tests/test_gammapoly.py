import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divvar.gammapoly import (
    _BATCH,
    PiecewisePolynomial,
    RationalPolynomial,
    _invert,
    _moment_transform,
    barnes_g,
    gamma_exact,
    gamma_mc_oracle,
    p_k,
    poly_det,
)
from divvar.cli import _default_c_grid
from mc_oracle import gamma_mc_reference
from pk_oracle import (
    _shifted_monomial,
    compose_linear,
    p_k_multinomial,
    p_k_residue,
    poly_mul,
)
from secular_oracle import laplace_det, sparse_mul


def slice_integral(a):
    """Exact density c -> int_{[0,1]^k} delta(sum w - c) prod w_i^{a_i} dw.

    Its Laplace transform is the product of the moment transforms
    m_{a_i}(s) = int_0^1 w^{a_i} e^{-sw} dw, inverted termwise: the route
    that gamma_exact takes for its Hankel determinant.
    """
    k = len(a)
    transform = _moment_transform(k, a[0])
    for ai in a[1:]:
        transform = sparse_mul(transform, _moment_transform(k, ai))
    return _invert(k, transform, Fraction(1))


def test_barnes_g_values():
    # G(1) = G(2) = G(3) = 1, G(4) = 2, G(5) = 12
    assert [barnes_g(n) for n in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 12]


def test_rational_polynomial_arithmetic():
    p = RationalPolynomial([Fraction(1), Fraction(2)])  # 1 + 2c
    q = poly_mul(p, p)  # (1 + 2c)^2
    assert q.eval(3) == 49
    assert q.integral_over(0, 1) == Fraction(1) + Fraction(2) + Fraction(4, 3)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-4, max_value=4))
def test_eval_reads_a_float_as_its_exact_value(c):
    # gamma_3's piece 1 has coefficients that cancel at every c
    p = gamma_exact(3).pieces[1]
    exact = sum((a * Fraction(c) ** i for i, a in enumerate(p.coeffs)), Fraction(0))
    assert p.eval(c) == exact
    assert RationalPolynomial().eval(c) == 0


def _exact_q_cs(k):
    """The c_q = log X / log q that conjectured_values evaluates gamma_k at:
    q over [Q, 2Q], X = round(Q^c) on the default c-grid, Q = 100 and 300."""
    cs = []
    for Q in (100, 300):
        qs = np.arange(Q, 2 * Q + 1)
        for c in _default_c_grid(k):
            cs += (math.log(round(Q**c)) / np.log(qs)).tolist()
    return [c for c in cs if 0 <= c <= k]


@pytest.mark.parametrize("k", range(1, 9))
def test_eval_float_is_the_rounded_exact_value(k):
    g, p = gamma_exact(k), p_k(k)
    cs = _exact_q_cs(k)
    assert len(cs) > 1000
    for c in cs:
        assert g.eval_float(c) == float(g.eval(c)), (k, c)
        assert p.eval_float(c) == float(p.eval(c)), (k, c)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0, max_value=1))
def test_eval_float_matches_float_of_eval(k, u):
    c = u * k
    g = gamma_exact(k)
    assert g.eval_float(c) == float(g.eval(c))
    assert p_k(k).eval_float(c) == float(p_k(k).eval(c))
    with pytest.raises(ValueError):
        g.eval_float(k + 0.5)


@pytest.mark.parametrize("k", range(1, 9))
def test_eval_floats_within_the_stated_bound(k):
    # within the bound eval_floats states, against the exact eval: piece j
    # is expanded about c0 = j for j < k/2 and c0 = j + 1 otherwise, and
    # with n its degree, |error| <= g_{2n+1} sum_i |a_i| |h|^i + n 2^-1074
    g = gamma_exact(k)
    rng = np.random.default_rng(100 + k)
    knots = np.arange(k + 1.0)
    ends = np.geomspace(1e-12, 0.5, 100)  # gamma_8 is subnormal near 8
    cs = np.concatenate([j + rng.random(2000) for j in range(k)]
                        + [knots, np.nextafter(knots[1:], 0), ends, k - ends])
    got = g.eval_floats(cs)
    assert got.dtype == np.float64 and got.shape == cs.shape
    assert g.eval_floats(cs.tolist()).tolist() == got.tolist()
    piece_of = np.minimum(cs.astype(np.int64), k - 1)
    for j, piece in enumerate(g.pieces):
        c0 = j if 2 * j < k else j + 1
        n = len(piece.coeffs) - 1
        # |a_i|, a_i = sum_{l >= i} C(l, i) c0^(l - i) p_l the Taylor coefficients
        sizes = RationalPolynomial(
            abs(sum(math.comb(l, i) * c0 ** (l - i) * a
                    for l, a in enumerate(piece.coeffs) if l >= i))
            for i in range(n + 1))
        # g_{2n+1} = m / (2^53 - m), m = 2n + 1; the test below is
        # |v - e| <= g_{2n+1} s + n 2^-1074 multiplied out in integers
        m = 2 * n + 1
        for i in np.flatnonzero(piece_of == j).tolist():
            c = float(cs[i])
            vn, vd = float(got[i]).as_integer_ratio()
            en, ed = piece._ratio(c)
            sn, sd = sizes._ratio(abs(c - c0))
            lhs = abs(vn * ed - en * vd) * sd * (2**53 - m) << 1074
            rhs = ((m * sn << 1074) + n * sd * (2**53 - m)) * vd * ed
            assert lhs <= rhs, (k, c)


@pytest.mark.parametrize("c", [-0.5, -5e-324, 3 + 2**-50, 4.0, math.nan, math.inf])
def test_eval_floats_rejects_c_outside_the_range(c):
    g = gamma_exact(3)
    with pytest.raises(ValueError):
        g.eval_floats([1.0, c])
    if not math.isnan(c):
        with pytest.raises(ValueError):
            g.eval_float(c)


def test_eval_floats_of_no_points():
    assert gamma_exact(2).eval_floats([]).shape == (0,)
    zero = PiecewisePolynomial(1, (RationalPolynomial(),))
    assert zero.eval_floats([0.0, 0.5, 1.0]).tolist() == [0.0, 0.0, 0.0]


def _invert_termwise(k, transform, scale):
    """_invert with each term its own Fraction polynomial, summed one by one."""
    by_shift = [RationalPolynomial() for _ in range(k)]
    for key, coeff in transform.items():
        m, t = divmod(key, k + 1)
        if t < k and coeff:
            by_shift[t] = by_shift[t] + _shifted_monomial(
                t, m - 1, scale * Fraction(coeff, math.factorial(m - 1)))
    pieces, running = [], RationalPolynomial()
    for poly in by_shift:
        running = running + poly
        pieces.append(running)
    return pieces


@pytest.mark.parametrize("k", range(1, 9))
def test_invert_is_the_termwise_sum(k):
    moments = [_moment_transform(k, r) for r in range(2 * k - 1)]
    transform = poly_det(k, lambda i, j: moments[i + j])
    scale = Fraction(1, barnes_g(k + 1) ** 2)
    assert list(gamma_exact(k).pieces) == _invert_termwise(k, transform, scale)
    assert list(_invert(k, {}, scale).pieces) == [RationalPolynomial()] * k


def test_compose_linear_reflection():
    p = RationalPolynomial([Fraction(0), Fraction(0), Fraction(1)])  # c^2
    r = compose_linear(p, 2, -1)  # (2-c)^2
    assert r.eval(Fraction(1, 2)) == Fraction(9, 4)


def test_gamma2_pieces_exact():
    g = gamma_exact(2)
    assert g.pieces[0].coeffs == (Fraction(0),) * 3 + (Fraction(1, 6),)
    assert g.pieces[1].coeffs == (
        Fraction(4, 3), Fraction(-2), Fraction(1), Fraction(-1, 6))


def test_gamma_integral_is_barnes_ratio():
    for k in (2, 3):
        g = gamma_exact(k)
        expect = Fraction(barnes_g(k + 1) ** 2, barnes_g(2 * k + 1))
        assert g.integral() == expect
    assert gamma_exact(2).integral() == Fraction(1, 12)
    assert gamma_exact(3).integral() == Fraction(1, 8640)


def test_gamma_eval_edges():
    g = gamma_exact(2)
    assert g.eval(0) == 0
    assert g.eval(2) == 0
    assert g.eval(Fraction(3, 2)) == Fraction(1, 48)
    with pytest.raises(ValueError):
        g.eval(3)
    with pytest.raises(ValueError):
        float(g.eval(-0.1))


def test_p2_both_methods():
    expect = (Fraction(4, 3), Fraction(-2), Fraction(1), Fraction(-1, 3))
    assert p_k_residue(2).coeffs == expect
    assert p_k_multinomial(2).coeffs == expect
    assert p_k(2).coeffs == expect


def test_p1_is_minus_one():
    # gamma_1 is 1 on [0,1) and vanishes on [1,2)
    expect = RationalPolynomial([-1])
    assert p_k_residue(1) == expect
    assert p_k_multinomial(1) == expect
    assert p_k(1) == expect


def test_bridge_identity_k3():
    # piece on [1,2) equals c^8/8! plus the off-diagonal polynomial
    g = gamma_exact(3)
    p = p_k_residue(3)
    for c in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(9, 5)):
        assert g.eval(c) == c**8 / math.factorial(8) + p.eval(c)


def test_slice_integral_is_irwin_hall_density():
    # with zero exponents this is the density of a sum of two uniforms
    den = slice_integral((0, 0))
    assert den.eval(Fraction(1, 2)) == Fraction(1, 2)
    assert den.eval(Fraction(3, 2)) == Fraction(1, 2)
    assert den.eval(1) == 1
    assert den.integral() == 1


def _tuple_keyed_transform(k):
    """gamma_k's transform times G(k+1)^2 as {(t, m): coeff}, e^{-ts} s^{-m}.

    Its own cofactor expansion of det[m_{i+j}(s)]_{i,j<k}, over moment
    transforms keyed by the pair (t, m); no Kronecker substitution.
    """
    def moment(r):
        out = {(0, r + 1): math.factorial(r)}
        for j in range(r + 1):
            out[(1, r + 1 - j)] = -(math.factorial(r) // math.factorial(j))
        return out

    def mul(a, b):
        out = {}
        for (t1, m1), c1 in a.items():
            for (t2, m2), c2 in b.items():
                key = (t1 + t2, m1 + m2)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    moments = [moment(r) for r in range(2 * k - 1)]

    @functools.cache
    def det(cols):  # the minor on rows k - len(cols).. and columns cols
        if not cols:
            return {(0, 0): 1}
        row = k - len(cols)
        total = {}
        for i, col in enumerate(sorted(cols)):
            for key, c in mul(moments[row + col], det(cols - {col})).items():
                total[key] = total.get(key, 0) + (-1) ** i * c
        return {key: c for key, c in total.items() if c}

    return det(frozenset(range(k)))


@pytest.mark.parametrize("k", range(1, 9))
def test_kronecker_keys_never_carry(k):
    # each key m (k + 1) + t of poly_det's transform, the route gamma_k
    # takes, decodes to 0 <= t <= k and the stated k <= m <= k (2k - 1),
    # and to the tuple-keyed expansion's terms
    moments = [_moment_transform(k, r) for r in range(2 * k - 1)]
    transform = poly_det(k, lambda i, j: moments[i + j])
    decoded = {}
    for key, c in transform.items():
        m, t = divmod(key, k + 1)
        assert 0 <= t <= k and k <= m <= k * (2 * k - 1), (key, t, m)
        decoded[(t, m)] = c
    assert decoded == _tuple_keyed_transform(k)


@pytest.mark.parametrize("n", range(1, 7))
def test_poly_det_matches_laplace_oracle(n):
    # signed coefficients, exponents on both sides of 0 and empty entries
    rng = np.random.default_rng(n)
    for _ in range(40):
        matrix = [[{int(e): int(rng.choice([-1, 1]) * rng.integers(1, 10**6))
                    for e in rng.choice(np.arange(-3, 9), rng.integers(0, 4), replace=False)}
                   for _ in range(n)] for _ in range(n)]
        entry = lambda i, j: matrix[i][j]
        assert poly_det(n, entry) == laplace_det(n, entry), matrix


def test_poly_det_swaps_rows_on_a_zero_pivot():
    assert poly_det(2, lambda i, j: {0: 1} if i != j else None) == {0: -1}
    assert poly_det(3, lambda i, j: {2: 1} if i + j == 2 else {}) == {6: -1}


def test_poly_det_singular_matrices_give_the_empty_dict():
    rows = [{0: 1, 2: -3}, {1: 5}]
    assert poly_det(2, lambda i, j: rows[j]) == {}  # two equal rows
    assert poly_det(3, lambda i, j: {0: i + j, 1: 2} if i != 1 else None) == {}
    assert poly_det(3, lambda i, j: {0: i + j, 1: 2} if j != 1 else None) == {}


def test_poly_det_reaches_its_bound():
    # one entry per row, so the bound is the product of the entries' norms
    assert poly_det(2, lambda i, j: {0: (-1) ** i * 2**40} if i == j else None) == {0: -2**80}
    assert poly_det(1, lambda i, j: {3: 2**40}) == {3: 2**40}


def test_poly_det_needs_a_row():
    with pytest.raises(ValueError):
        poly_det(0, lambda i, j: {0: 1})


@pytest.mark.parametrize("k", [6, 7, 8])
def test_large_k_mass_and_mirror_symmetry(k):
    g = gamma_exact(k)
    assert g.integral() == Fraction(barnes_g(k + 1) ** 2, barnes_g(2 * k + 1))
    for j in range(k):
        assert g.pieces[j] == compose_linear(g.pieces[k - 1 - j], k, -1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_large_k_bridge_both_methods(k):
    n = k * k - 1
    lead = RationalPolynomial([0] * n + [Fraction(1, math.factorial(n))])
    bridge = gamma_exact(k).pieces[1] - lead
    assert p_k_residue(k) == bridge
    assert p_k_multinomial(k) == bridge
    assert p_k(k) == bridge


def test_mc_oracle_seeded_and_close():
    g = gamma_exact(2)
    est1, err1 = gamma_mc_oracle(2, [1.2], 200000, seed=11)[0]
    est2, _ = gamma_mc_oracle(2, [1.2], 200000, seed=11)[0]
    assert est1 == est2  # seed determines the output
    assert abs(est1 - float(g.eval(1.2))) < 4 * err1


# four full batches and a partial fifth; the reference sums in batches of
# 2^18, so the two group their sums differently
MC_SAMPLES = 4 * _BATCH + 10**4


@pytest.mark.parametrize("k", range(2, 9))
def test_mc_grid_matches_per_c_reference(k):
    cs = _default_c_grid(k)
    for seed in range(3):
        grid = gamma_mc_oracle(k, cs, MC_SAMPLES, seed)
        assert len(grid) == len(cs)
        for c, pair in zip(cs, grid):
            for got, want in zip(pair, gamma_mc_reference(k, c, MC_SAMPLES, seed)):
                assert abs(got - want) <= 1e-14 * abs(want), (k, seed, c)


@pytest.mark.parametrize("k", [2, 4, 7])
def test_mc_grid_pair_is_the_one_c_pair(k):
    cs = _default_c_grid(k)
    grid = gamma_mc_oracle(k, cs, MC_SAMPLES, seed=5)
    assert grid == [gamma_mc_oracle(k, [c], MC_SAMPLES, seed=5)[0] for c in cs]


@pytest.mark.parametrize("k, cs, samples", [
    (1, [0.5], 10**4),
    (3, [1.0, 3.0], 10**4),
    (3, [1.0, 0.0], 10**4),
    (3, [1.0], 10**4 - 1),
])
def test_mc_oracle_refuses_before_drawing(k, cs, samples, monkeypatch):
    def unreachable(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(np.random, "default_rng", unreachable)
    with pytest.raises(ValueError):
        gamma_mc_oracle(k, cs, samples, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=2))
def test_gamma2_symmetry_pointwise(c):
    g = gamma_exact(2)
    assert g.eval(c) == g.eval(2 - c)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=3))
def test_gamma3_nonnegative(c):
    assert gamma_exact(3).eval(c) >= 0
