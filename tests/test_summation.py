import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divvar.summation import exact_sum
from divvar.weights import Normalization, make_bump


def _fsum(values):
    """math.fsum's value, or the type of the exception it raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _exact(values):
    try:
        return exact_sum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


# any float 2^e m with |m| in [1/2, 1), e from -1074 to 1000: subnormals
# at the bottom, far below overflow at the top
_wide = st.builds(lambda m, e, s: s * math.ldexp(m, e),
                  st.floats(0.5, 1, exclude_max=True),
                  st.integers(-1074, 1000), st.sampled_from((1.0, -1.0)))
_special = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308))
_value = st.one_of(_wide, _special, st.floats(-1e6, 1e6))


@st.composite
def _cancelling(draw):
    """Values and their negations, nudged, shuffled: sums far below the terms."""
    xs = draw(st.lists(_value, max_size=200))
    nudged = [-x * (1 + draw(st.sampled_from((0.0, 2**-52, -2**-52)))) for x in xs]
    extra = draw(st.lists(_value, max_size=3))
    return draw(st.permutations(xs + nudged + extra))


def _chunks(draw, values):
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=6)))
    edges = [0, *cuts, len(values)]
    return [np.array(values[a:b]) for a, b in zip(edges, edges[1:])]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_value, max_size=3000), _cancelling()), st.data())
def test_exact_sum_is_fsum_for_any_chunking(values, data):
    want = _fsum(values)
    assert _exact(np.array(values, dtype=np.float64)) == want
    assert _exact(_chunks(data.draw, values)) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(_value, max_size=50), st.sampled_from((math.inf, -math.inf, math.nan)),
       st.data())
def test_any_non_finite_value_raises(values, bad, data):
    # fsum would answer nan or an infinity; exact_sum refuses, wherever the
    # value sits and however the values are chunked
    values.insert(data.draw(st.integers(0, len(values))), bad)
    for arg in (np.array(values, dtype=np.float64), _chunks(data.draw, values)):
        with pytest.raises(ValueError, match=str(bad)):
            exact_sum(arg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_after_finite_pieces_raises(monkeypatch, bad):
    # at every position of 3 chunks cut into pieces of 5: in a chunk's
    # first piece, in a later one, and in a short last piece
    from divvar import summation
    monkeypatch.setattr(summation, "_PIECE", 5)
    for at in range(23):
        x = np.ones(23)
        x[at] = bad
        for arg in (x, np.array_split(x, [7, 19])):
            with pytest.raises(ValueError, match=str(bad)):
                exact_sum(arg)
    # and unpatched, past a whole piece of 2^16 finite values
    monkeypatch.undo()
    x = np.ones(2**16 + 3)
    x[-1] = bad
    with pytest.raises(ValueError, match=str(bad)):
        exact_sum(x)


def test_inf_minus_inf_across_chunks_raises_like_fsum():
    with pytest.raises(ValueError):
        exact_sum([np.array([math.inf, 1.0]), np.array([-math.inf])])


def test_sum_beyond_the_float_range_overflows():
    with pytest.raises(OverflowError):
        exact_sum(np.array([1e308, 1e308]))
    with pytest.raises(OverflowError):
        exact_sum([np.array([-1.7e308]), np.array([-1.7e308])])
    assert exact_sum(np.array([1.7976931348623157e308, 1e291])) == 1.7976931348623157e308


def test_partial_overflow_is_not_an_error():
    # fsum overflows on the partial sum 1e308 + 1e308; the exact sum does not
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308


def test_empty_and_zero_sums():
    assert exact_sum(np.array([])) == 0.0
    assert exact_sum([]) == 0.0
    assert exact_sum([np.array([]), np.array([-0.0, 0.0])]) == 0.0


def test_seeded_wide_arrays_equal_fsum():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(0, 2000))
        x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 1000, n))
        assert exact_sum(x) == math.fsum(x.tolist())
        assert exact_sum(np.array_split(x, 7)) == math.fsum(x.tolist())


def test_bins_flush_past_their_exact_capacity(monkeypatch):
    # with pieces of 5 values, the 27-bit halves of 2^53 - 1 at one exponent
    # are summed in many pieces, which end inside chunks and at their ends
    from divvar import summation
    monkeypatch.setattr(summation, "_PIECE", 5)
    x = np.full(23, 1 - 2.0**-53)
    x[::4] = -2.0**-1074
    assert exact_sum(x) == math.fsum(x.tolist())
    assert exact_sum(np.array_split(x, 4)) == math.fsum(x.tolist())
    assert exact_sum(np.array_split(x, [3, 10, 15])) == math.fsum(x.tolist())


def test_peak_is_a_few_pieces():
    # 2^22 Phi-weighted normal values, binary exponents -1073 ... 4: 2.1 MiB
    # traced, about 4 words per value of one piece of 2^16 (122 MB while a
    # whole array was binned as one piece).  The bound, 6 words per value of
    # such a piece, is not read from _PIECE, so that larger pieces fail it
    phi = make_bump(1, 2, Normalization.INTEGRAL_ONE)
    _, w = phi.sample(2**22, 2)
    x = w * np.random.default_rng(7).standard_normal(w.size)
    tracemalloc.start()
    try:
        got = exact_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * 2**16
    assert got == exact_sum(np.array_split(x, 5))
