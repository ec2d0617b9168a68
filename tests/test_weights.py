import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from divvar.weights import (
    Normalization,
    SmoothWeight,
    make_bump,
)


def mass(w, power):
    """The integral of w**power over its support, by mpmath at 40 digits."""
    lo, hi = w.support_lo, w.support_hi
    with mpmath.workdps(40):
        c = mpmath.mpf(w.norm_constant)
        return mpmath.quad(
            lambda u: (c * mpmath.exp(-1 / ((u - lo) * (hi - u)))) ** power,
            [lo, hi])


def test_unit_integral_normalization(phi):
    assert abs(mass(phi, 1) - 1) < 1e-15


def test_unit_square_integral_normalization(psi):
    assert abs(mass(psi, 2) - 1) < 1e-15


def at(w, u):
    """w(u) for one point, through the vectorized evaluation."""
    return float(w.eval_array(np.array([u]))[0])


def test_vanishes_outside_support(psi):
    for u in (0.0, 0.5, 1.0, 2.0, 2.5, -3.0):
        assert at(psi, u) == 0.0


def test_eval_array_matches_scalar(psi):
    xs = np.linspace(0.8, 2.2, 57)
    arr = psi.eval_array(xs)
    for x, v in zip(xs.tolist(), arr):
        # the closed form C * exp(-1 / ((x - 1) * (2 - x))) on (1, 2)
        want = 0.0
        if 1 < x < 2:
            want = psi.norm_constant * math.exp(-1 / ((x - 1) * (2 - x)))
        assert v == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_weight_value_at_centre(phi):
    # C * exp(-1 / ((1.5 - 1) * (2 - 1.5)))
    assert at(phi, 1.5) == phi.norm_constant * math.exp(-4.0)


def test_raw_bump_is_small_near_edges():
    f = SmoothWeight(1, 2, Normalization.INTEGRAL_ONE, 1.0)
    assert at(f, 1.5) > at(f, 1.01) > 0
    assert at(f, 1.5) > at(f, 1.99) > 0


def test_custom_support():
    w = make_bump(2, 5, Normalization.INTEGRAL_ONE)
    assert at(w, 1.9) == 0.0 and at(w, 5.1) == 0.0 and at(w, 3.5) > 0
    assert abs(mass(w, 1) - 1) < 1e-15
    assert abs(mass(make_bump(2, 5, Normalization.INTEGRAL_OF_SQUARE_ONE), 2) - 1) < 1e-15


def test_bad_support_rejected():
    with pytest.raises(ValueError):
        make_bump(2, 2, Normalization.INTEGRAL_ONE)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_nonnegative_everywhere(u):
    w = make_bump(1, 2, Normalization.INTEGRAL_ONE)
    assert at(w, u) >= 0.0


@given(st.floats(min_value=1e-6, max_value=0.499))
def test_symmetry_of_bump(eps):
    # the bump on (1,2) is symmetric about 1.5
    w = make_bump(1, 2, Normalization.INTEGRAL_OF_SQUARE_ONE)
    assert at(w, 1.5 - eps) == pytest.approx(at(w, 1.5 + eps), rel=1e-12)


@pytest.mark.parametrize("Q", (2, 3, 17, 1025, 46416))
def test_sample_phi_is_the_direct_formula(phi, Q):
    # the moduli q >= 2 with q/Q in [1, 2] are Q..2Q; both ends weigh 0
    first, w = phi.sample(Q, 2)
    assert first == Q and w.size == Q + 1 and w.dtype == np.float64
    assert w[0] == 0.0 and w[-1] == 0.0
    qs = np.arange(first, first + w.size)
    assert w.tobytes() == phi.eval_array(qs / Q).tobytes()


def test_sample_least_cuts_the_window(phi):
    # at scale 1 the support [1, 2] holds m = 1 and 2; least 2 keeps m = 2
    assert phi.sample(1, 1)[0] == 1 and phi.sample(1, 1)[1].size == 2
    first, w = phi.sample(1, 2)
    assert first == 2 and w.tolist() == [0.0]


def test_sample_of_an_empty_window_raises(phi):
    with pytest.raises(ValueError, match="no integer m >= 3"):
        phi.sample(1, 3)
    # no integer lies in [1.2, 1.4]
    narrow = make_bump(1.2, 1.4, Normalization.INTEGRAL_ONE)
    with pytest.raises(ValueError, match="no integer"):
        narrow.sample(1, 1)
