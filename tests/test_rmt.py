import math
from fractions import Fraction

import numpy as np
import pytest

from divvar.gammapoly import gamma_exact
from divvar.rmt import (
    SecularTable,
    SingularShiftError,
    cfkrs_rhs,
    haar_average_heine,
    rmt_gamma_deviation,
    secular_coefficients,
    symbol_coeffs,
)


def test_symbol_coeffs_single_pair():
    # (1 - az)(1 - b/z): coefficient of z^0 is 1 + ab
    c = symbol_coeffs([0.5], [0.25])
    assert c[0] == pytest.approx(1 + 0.125)
    assert c[1] == pytest.approx(-0.5)
    assert c[-1] == pytest.approx(-0.25)


def test_heine_n1_by_hand():
    # N=1: the Toeplitz determinant is just the 0th Fourier coefficient
    a, b = 0.7, 0.4
    assert haar_average_heine([a], [b], 1) == pytest.approx(1 + a * b)


def test_cfkrs_matches_heine_randomized():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        for N in (1, 2, 4, 6):
            A = np.exp(rng.uniform(-0.4, 0.4, size=k))
            B = np.exp(rng.uniform(-0.4, 0.4, size=k))
            lhs = haar_average_heine(A, B, N)
            rhs = cfkrs_rhs(A, B, N)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_singular_shift_rejected():
    with pytest.raises(SingularShiftError):
        cfkrs_rhs([2.0], [0.5], 3)  # alpha * beta = 1


def test_secular_k2_total_mass():
    # at x = 1 the generating polynomial evaluates to the unshifted average
    table = secular_coefficients(2, 4)
    assert sum(table.coefficients) == 105
    assert len(table.coefficients) == 2 * 4 + 1


def test_secular_kn_bound_enforced():
    # k and N come from the command line; kN = 128 is refused before any work
    with pytest.raises(ValueError, match="exceeds bound"):
        secular_coefficients(8, 16)


def test_secular_nonnegative_and_symmetric():
    table = secular_coefficients(2, 6)
    coeffs = table.coefficients
    assert all(c >= 0 for c in coeffs)
    assert coeffs == tuple(reversed(coeffs))  # functional equation m <-> kN - m


def test_secular_json_roundtrip():
    t = secular_coefficients(2, 5)
    back = SecularTable.from_json(t.to_json())
    assert back == t


def test_deviation_decays():
    g = gamma_exact(2)
    d10, _ = rmt_gamma_deviation(2, 10, g)
    d20, _ = rmt_gamma_deviation(2, 20, g)
    assert d20 < d10
    assert d10 / d20 < 4  # roughly O(1/N)


def test_scaled_coefficients_near_gamma():
    g = gamma_exact(2)
    table = secular_coefficients(2, 30)
    m = 45  # m/N = 1.5
    scaled = Fraction(table.coefficients[m], 30**3)
    assert abs(float(scaled) - g.eval_float(1.5)) < 0.05
