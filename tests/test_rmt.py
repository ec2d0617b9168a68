import math
from fractions import Fraction

import numpy as np
import pytest

from divvar.gammapoly import gamma_exact
from divvar.rmt import (
    SingularShiftError,
    cfkrs_rhs,
    haar_average_heine,
    rmt_gamma_deviation,
    secular_coefficients,
    symbol_coeffs,
)
from secular_oracle import subset_sum_secular, toeplitz_secular


def test_symbol_coeffs_single_pair():
    # (1 - az)(1 - b/z): coefficient of z^0 is 1 + ab
    c = symbol_coeffs([Fraction(1, 2)], [Fraction(1, 4)])
    assert c == {0: Fraction(9, 8), 1: Fraction(-1, 2), -1: Fraction(-1, 4)}


def test_heine_n1_by_hand():
    # N=1: the Toeplitz determinant is just the 0th Fourier coefficient
    a, b = Fraction(7, 10), Fraction(2, 5)
    assert haar_average_heine([a], [b], 1) == 1 + a * b


def test_cfkrs_matches_heine_randomized():
    # distinct odd numerators over 256: ab != 1 and no shift repeats on a side
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        for N in (1, 2, 4, 6):
            A, B = ([Fraction(int(m), 256)
                     for m in rng.choice(np.arange(173, 383, 2), size=k, replace=False)]
                    for _ in range(2))
            assert haar_average_heine(A, B, N) == cfkrs_rhs(A, B, N)


def test_singular_shift_rejected():
    with pytest.raises(SingularShiftError):
        cfkrs_rhs([Fraction(2)], [Fraction(1, 2)], 3)  # alpha * beta = 1
    with pytest.raises(SingularShiftError):
        cfkrs_rhs([Fraction(0)], [Fraction(1, 2)], 3)  # a swap inverts alpha


def test_secular_k2_total_mass():
    # at x = 1 the generating polynomial evaluates to the unshifted average
    table = secular_coefficients(2, 4)
    assert sum(table.coefficients) == 105
    assert len(table.coefficients) == 2 * 4 + 1


def test_secular_kn_bound_enforced():
    # k and N come from the command line; kN = 481 is refused before any work
    with pytest.raises(ValueError, match="exceeds bound"):
        secular_coefficients(1, 481)


def test_secular_matches_oracles():
    for k, N in ((1, 5), (2, 40), (3, 30), (4, 20), (5, 12)):
        assert secular_coefficients(k, N).coefficients == toeplitz_secular(k, N), (k, N)
    for k in range(1, 9):
        for N in range(1, 5):
            assert secular_coefficients(k, N).coefficients == subset_sum_secular(k, N), (k, N)


def test_secular_nonnegative_and_symmetric():
    table = secular_coefficients(2, 6)
    coeffs = table.coefficients
    assert all(c >= 0 for c in coeffs)
    assert coeffs == tuple(reversed(coeffs))  # functional equation m <-> kN - m


def test_secular_inexact_results_raise(monkeypatch):
    import divvar.rmt as rmt

    # a normaliser that leaves a remainder
    monkeypatch.setattr(rmt, "barnes_g", lambda n: 7)
    with pytest.raises(ArithmeticError, match="not divisible"):
        secular_coefficients(2, 3)
    monkeypatch.undo()
    # a determinant with a term below degree k(k-1)/2 = 1
    monkeypatch.setattr(rmt, "laplace_det", lambda n, entry, mul: {0: 1, 1: 1})
    with pytest.raises(ArithmeticError, match="degrees outside"):
        secular_coefficients(2, 3)


def test_deviation_decays():
    d10, _ = rmt_gamma_deviation(secular_coefficients(2, 10))
    d20, _ = rmt_gamma_deviation(secular_coefficients(2, 20))
    assert d20 < d10
    assert d10 / d20 < 4  # roughly O(1/N)


def test_deviation_times_n_falls_and_settles():
    # measured N * deviation (relative to max gamma_k) at N = 20, 40, 80,
    # 160: k = 2 gives 6.565, 6.279, 6.138, 6.069 with argmax m = N (c = 1);
    # k = 3 gives 40.94, 31.26, 27.37, 25.62 with argmax m = 3N/2 (c = 3/2)
    ns = (20, 40, 80, 160)
    for k, argmax_c in ((2, 1), (3, Fraction(3, 2))):
        scaled = []
        for N in ns:
            dev, arg = rmt_gamma_deviation(secular_coefficients(k, N))
            assert arg == argmax_c * N
            scaled.append(N * dev)
        steps = [a - b for a, b in zip(scaled, scaled[1:])]
        assert all(s > 0 for s in steps), scaled  # N * deviation falls ...
        assert all(b < a for a, b in zip(steps, steps[1:])), scaled  # ... and settles


def test_deviation_is_relative_to_the_largest_gamma():
    # gamma_2 peaks on the grid at gamma_2(1) = 1/6; at k = 8 the absolute
    # gap, 3.0e-46, is 1.1e9 times max gamma_8 = gamma_8(4) = 2.77e-55
    table = secular_coefficients(2, 20)
    gap = abs(Fraction(table.coefficients[20], 20**3) - Fraction(1, 6))
    assert rmt_gamma_deviation(table) == (float(gap * 6), 20)
    dev, arg = rmt_gamma_deviation(secular_coefficients(8, 20))
    assert arg == 80 and 1.0e9 < dev < 1.2e9


def test_scaled_coefficients_near_gamma():
    g = gamma_exact(2)
    table = secular_coefficients(2, 30)
    m = 45  # m/N = 1.5
    scaled = Fraction(table.coefficients[m], 30**3)
    assert abs(float(scaled) - float(g.eval(1.5))) < 0.05
