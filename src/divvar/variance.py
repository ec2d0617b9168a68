"""Empirical variances of divisor sums in progressions and short intervals.

Provides the weighted aggregate Delta_k(Q;X) = sum_q V_k(q;X) Phi(q/Q)
together with its exact decomposition into same-residue (A), mean-square
(B), diagonal (D) and off-diagonal (G) pieces, the short-interval
variance, and the predicted values for each of these quantities in the
different ranges of c = log X / log Q.

Delta_k is the only route to the per-modulus variances V_k(q;X).  Pairs
m = n (mod q) are shifts m - n = tq, so every modulus is served by the
lag sums of the sequence u_d of d_k(n) psi(n/X) along the multiples of
each squarefree d <= 2Q (Möbius inversion removes the condition
(n, q) = 1; mu comes from sieve.sieve_multiplicative on [1, 2Q]).  Each
u_d gets them the cheaper of two ways: by its class sums modulo each of
its |M_d| moduli m = q/d, about |M_d| n_d work for a sequence of length
n_d, or from its whole autocorrelation by real FFTs, blocked for long
sequences and batched into 2-D transforms for short ones, about
n_d log n_d.  That is sum_d min(|M_d| n_d, n_d log n_d) work, at most
O(X log X log Q), instead of the O(QX) of binning every modulus by
residue class; `delta_k` states the derivation and the error
budget against that binning, which lives under tests/ as the oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import EulerConstantResult, a_k_of_q
from .gammapoly import gamma_exact, p_k
from .sieve import DivisorTable, sieve_multiplicative
from .weights import Normalization, SmoothWeight


# Margin of the regime classification, in units of c
DEFAULT_DELTA = 0.05


class Regime(enum.Enum):
    SMALL_C = "SmallC"
    THEOREM1_RANGE = "Theorem1Range"
    GRH_RANGE = "GRHRange"
    CONJECTURAL_ONLY = "ConjecturalOnly"


def classify_regime(k: int, c: float) -> Regime:
    """The range of c = log X / log Q that a prediction at (k, c) falls in.

    With d = DEFAULT_DELTA, Theorem-1 range is [d, (k+2)/k - d], the
    GRH-conditional range continues up to 2 - d, c < d is SmallC, and
    anything else is conjectural only.
    """
    if DEFAULT_DELTA <= c <= (k + 2) / k - DEFAULT_DELTA:
        return Regime.THEOREM1_RANGE
    if DEFAULT_DELTA <= c <= 2 - DEFAULT_DELTA:
        return Regime.GRH_RANGE
    if c < DEFAULT_DELTA:
        return Regime.SMALL_C
    return Regime.CONJECTURAL_ONLY


@dataclass(frozen=True)
class VarianceBreakdown:
    """Delta_k(Q;X) and the pieces it decomposes into.

    Invariants (up to floating-point roundoff): delta = a_term - b_term
    and a_term = d_term + g_term.
    """

    delta: float
    a_term: float
    b_term: float
    d_term: float
    g_term: float


@dataclass(frozen=True)
class Prediction:
    """Predicted sizes of the variance quantities at parameters (k, Q, X)."""

    c: float
    regime: Regime
    prediction_leading: float
    prediction_exact_q: float
    prediction_diagonal: float
    prediction_offdiagonal: float


# Blocks of the autocorrelation are never shorter than this, so short
# sequences take a single transform.
_MIN_BLOCK = 2**14
_MAX_BLOCKS = 8
# Short sequences of one transform size are autocorrelated together, as the
# rows of 2-D transforms of at most this many entries (rows times size).
_BATCH = 2**17


# Transform sizes o 2^a, o in {1, 3, 5, 9, 15}: lengths the FFT handles at
# full speed, spaced at most 25 % apart (powers of two alone are 100 %)
_FFT_SIZES = np.array(sorted(o << a for o in (1, 3, 5, 9, 15) for a in range(58)))


def _fft_size(n):
    """The least transform size >= n, for an int or elementwise for an array."""
    return _FFT_SIZES[np.searchsorted(_FFT_SIZES, n)]


def _autocorrelation(u: np.ndarray) -> np.ndarray:
    """R[..., h] = sum_j u[..., j] u[..., j+h] for 0 <= h < n, row by row.

    Each row of u (a 1-D u is one row) is a sequence of length n; all rows
    share every transform, as 2-D real FFTs along the last axis.  The rows
    are cut into at most 8 blocks of length L = min(n, max(ceil(n/8), 2^14))
    and each block is transformed once, zero-padded to _fft_size(2L - 1) so
    that the circular correlation of two blocks does not wrap.  For each
    block offset j, one inverse transform of sum_i conj(F_i) F_{i+j} gives
    the lags jL + g, -L < g < L.  So n <= 2^14 takes one transform, |F|^2
    and one inverse.  For longer n this is no slower than one transform of
    length 2n, but every temporary (products, inverse transforms) is one
    block long: with one transform, `divvar variance --k 2 --q 1025
    --x 262605` peaks at 66 MiB of RSS instead of 52 MiB.  Zeros at the end
    of a row do not change its lags, so sequences of different lengths can
    share one array as zero-padded rows.
    """
    n = u.shape[-1]
    r = np.zeros(u.shape)
    if n == 0:
        return r
    block = min(n, max(-(-n // _MAX_BLOCKS), _MIN_BLOCK))
    size = _fft_size(2 * block - 1)
    spectra = [np.fft.rfft(u[..., i : i + block], size) for i in range(0, n, block)]
    for j in range(len(spectra)):
        acc = spectra[0].conj() * spectra[j]
        for i in range(1, len(spectra) - j):
            acc += spectra[i].conj() * spectra[i + j]
        corr = np.fft.irfft(acc, size)
        base = j * block
        top = min(block, n - base)
        r[..., base : base + top] += corr[..., :top]
        if j:
            r[..., base - block + 1 : base] += corr[..., size - block + 1 :]
    return r


def _progressions(first, step, count) -> np.ndarray:
    """first[i] + step[i] t for 0 <= t < count[i], concatenated over i.

    Every count must be >= 1; step may be a scalar.  Built as one running
    sum over the output array, in place.
    """
    out = np.repeat(np.broadcast_to(step, count.shape), count)
    last = first + step * (count - 1)
    out[np.cumsum(count) - count] = first - np.concatenate(([0], last[:-1]))
    return np.cumsum(out, out=out)


def _divisor_pairs(q_lo: int, q_hi: int):
    """The pairs (d, m), d squarefree, with q = dm in [q_lo, q_hi].

    Returns (d, m, mu(d)) as int64 arrays ordered by d and then m, so the
    pairs of one d are consecutive and the first of them has the least m.
    """
    mu = sieve_multiplicative(1, q_hi, lambda p, e: np.where(e == 1, -1, 0), np.int64)
    ds = np.flatnonzero(mu) + 1
    m_lo = -(-q_lo // ds)
    count = q_hi // ds - m_lo + 1
    live = count > 0
    ds, m_lo, count = ds[live], m_lo[live], count[live]
    d = np.repeat(ds, count)
    return d, _progressions(m_lo, 1, count), mu[d - 1]


def modulus_bytes(q_lo: int, q_hi: int) -> int:
    """An upper bound on the bytes `delta_k` and `conjectured_values` take
    for the moduli q_lo <= q <= q_hi, found in O(1).

    Pairs: L = q_hi - q_lo + 1 consecutive integers hold at most L/d + 1
    multiples of d, at most one when d > L and none when d > q_hi, so the
    pairs (d, m) of `_divisor_pairs` number at most L H_L + q_hi, where
    H_L <= ln L + 1 < floor(ln L) + 2.  Per pair, `delta_k` holds fewer
    than 11 words at once: the int64 d, m and mu(d), then inside np.unique
    a flat copy of d, its stable sort's permutation and buffer (half a
    permutation), the sorted copy, a bool mask, the running count of new
    values, that count minus 1 and the inverse.  Per modulus,
    `conjectured_values` holds at most 12 words: a_k(q), log q and
    phi(q/Q), two Python lists of floats (4 words an entry), a float array
    and temporaries.  Per integer of [1, q_hi], the mu sieve holds at most
    3 words: int64 values, cofactors and exponent bytes.  The three are
    summed, although they are not live together.

    At k = 2, X = 100 and [q_lo, q_hi] = [Q, 2Q], the tracemalloc peak of
    `delta_k` plus that of `conjectured_values` is 84.8 MB at Q = 10^5 and
    942 MB at Q = 10^6; this bound reads 146 MB and 1.64 GB there.
    """
    span = q_hi - q_lo + 1
    pairs = span * (int(math.log(span)) + 2) + q_hi
    return 8 * (11 * pairs + 12 * span + 3 * q_hi)


def _rows(w: np.ndarray, start, step, length) -> np.ndarray:
    """The sequences w[start[i]::step[i]], of the given lengths, as rows.

    Shorter rows are padded with zeros to the longest.  A single row is a
    view of w, so the d = 1 sequence is never copied.
    """
    if length.size == 1:
        return w[int(start[0]) :: int(step[0])][None, :]
    j = np.arange(int(length.max()))
    inside = j < length[:, None]
    at = np.where(inside, start[:, None] + step[:, None] * j, 0)
    return np.where(inside, w[at], 0.0)


def _lag_sums(r: np.ndarray, row, m, count) -> np.ndarray:
    """sum_{t=1}^{count[i]} r[row[i], t m[i]] for each i (count[i] >= 1).

    All lags are gathered by one _progressions and each i's lags are
    summed by one np.add.reduceat.  When q_hi <= 2 q_lo (Phi supported in
    [1, 2], as in the CLI) there are at most 1.5 r.size lags: in `delta_k`
    the pairs of a row of length n have count < n/m, their m are the
    integers in [a, b] with b <= 2a, and sum_{a <= m <= 2a} 1/m <= 3/2, the
    worst case being m in {1, 2}.
    """
    at = _progressions(row * r.shape[-1] + m, m, count)
    return np.add.reduceat(r.reshape(-1)[at], np.cumsum(count) - count)


# Each product of a fold has at most this many entries (or m, if m is
# larger): OpenBLAS splits a gemv of 9216 entries or more across two
# threads, and on a loaded 2-vCPU box such a call stalled for 4-8 ms (a
# scheduler tick) in most calls of some runs, against 5 us on one thread.
_FOLD_ENTRIES = 2**13


def _fold_lag_sums(u: np.ndarray, ms) -> np.ndarray:
    """sum_{t>=1} R(t m) for each m of ms, R the autocorrelation of the 1-D u.

    With S_a the sum of u_j over j = a (mod m), sum_a S_a^2 counts each
    pair j, j' = j + t m once for t = 0 and twice for t >= 1, so the lag sum
    is (sum_a S_a^2 - sum u^2) / 2.  u is folded into rows of length m and
    the rows are summed by BLAS products with a vector of ones, stacked in
    products of at most _FOLD_ENTRIES entries each, then the rows left over:
    about len(u) multiply-adds for each m, whatever m is.
    """
    u = np.ascontiguousarray(u)
    n = u.size
    ones = np.ones(min(n, _FOLD_ENTRIES))
    out = np.empty(len(ms))
    for i, m in enumerate(ms.tolist()):
        k = n // m  # whole rows; the first `stacked` go in products of `rows`
        rows = max(1, _FOLD_ENTRIES // m)
        stacked = k // rows * rows
        s = ones[: k - stacked] @ u[stacked * m : k * m].reshape(-1, m)
        if stacked:
            s += (ones[:rows] @ u[: stacked * m].reshape(-1, rows, m)).sum(axis=0)
        s[: n - k * m] += u[k * m :]
        out[i] = np.dot(s, s)
    return (out - np.einsum("i,i", u, u)) / 2


# The lag sums of a row of length n with |M| live moduli cost about
# |M| (n + _FOLD_OVERHEAD) folded entries by `_fold_lag_sums` and the time
# of _FFT_COST n log2 n folded entries by `_autocorrelation` and
# `_lag_sums`.  Measured on a 2-vCPU x86-64 box (numpy 2.4, OpenBLAS
# 0.3.31), best of 7: a fold costs 0.41 ns per entry and modulus plus
# 6.5 us per modulus (least squares over n = 50 ... 398108 and
# |M| = 2 ... 1026), and 6.5 us / 0.41 ns = 16000.  The FFT route costs
# 2.2-4.4 ns per n log2 n on batched short rows and 2.6-5.0 ns on blocked
# long rows, 5.5 to 12 folded entries; with _FFT_COST = 6, 8 or 11,
# `delta_k` took the same time within noise on the cache-k3 and sweep-k2
# points.
_FFT_COST = 8.0
_FOLD_OVERHEAD = 16000


def _folds(n, moduli):
    """Whether folding beats the FFT route, elementwise, for rows of length n
    with the given numbers of live moduli."""
    return moduli * (n + _FOLD_OVERHEAD) < _FFT_COST * n * np.log2(np.maximum(n, 1))


def delta_k(
    table: DivisorTable,
    Q: int,
    X: int,
    psi: SmoothWeight,
    phi: SmoothWeight,
) -> VarianceBreakdown:
    """Delta_k(Q;X) = sum_q V_k(q;X) Phi(q/Q), with its decomposition.

    With w_n = d_k(n) psi(n/X) and S_a the class sums over n = a (q),
    (n, q) = 1, each modulus contributes

        A_q = sum_a S_a^2 = D_q + G_q          (same-residue pairs)
        B_q = |sum_a S_a|^2 / phi(q)           (mean square)
        D_q = sum_{(n,q)=1} w_n^2              (diagonal m = n)
        G_q = 2 sum_{t>=1} sum_{(n,q)=1} w_n w_{n+tq}  (off-diagonal)
        V_q = A_q - B_q

    since m = n (mod q) means m - n = tq, and (n + tq, q) = (n, q).  Möbius
    inversion over the squarefree d | q removes the coprimality condition:
    with u_d the values w_n on the multiples n of d in the psi-window,
    T_d = sum u_d, T2_d = sum u_d^2 and R_d the autocorrelation of u_d,

        sum_{(n,q)=1} w_n = sum_{d|q} mu(d) T_d,   D_q = sum_{d|q} mu(d) T2_d,
        G_q = 2 sum_{d|q} mu(d) sum_{t>=1} R_d(t q/d),
        phi(q) = sum_{d|q} mu(d) q/d.

    So one pass over the squarefree d <= 2Q serves every modulus: u_d has
    length n_d, about X/d, and every sum over d | q is one np.bincount over
    the pairs (d, m) with q = dm in range, built once.

    The sequences are read from w as the rows of 2-D arrays.  A row's lag
    sums are needed at its live moduli M_d, the m with m < n_d, and each
    row with lags takes the cheaper of two routes to them:

    - folding (`_fold_lag_sums`): the class sums of u_d mod m by BLAS
      products, about |M_d| n_d work;
    - the FFT route: the whole autocorrelation R_d (`_autocorrelation`),
      about n_d log n_d work, and its lags t m gathered (`_lag_sums`).

    `_folds` picks the fold when |M_d| (n_d + _FOLD_OVERHEAD) is below
    _FFT_COST n_d log2 n_d, two costs measured as stated beside them.  So
    the work is sum_d min(|M_d| n_d, n_d log n_d), at most O(X log X log Q),
    where binning every modulus separately costs O(QX).  At (k, Q, X) =
    (3, 100, 398107) all 122 rows with lags fold, the d = 1 row with its 101
    moduli among them; at (2, 1025, 262605) 527 of 1246 do, but none of the
    rows d <= 23, such as the d = 1 row with its 1026 moduli.

    On the FFT route a row longer than 2^14 is a batch of its own, with
    blocked transforms, so the d = 1 row, of length X, never needs a
    transform of length 2X and its temporaries.  Shorter rows are grouped
    by transform size, and each group is cut into batches of at most
    _BATCH = 2^17 entries (rows times size), one 2-D transform each.  Rows
    that fold or have no lags are batched by length alone and only summed
    before their folds.  T_d and T2_d are the row sums of u and u^2.  The
    lags t m of all pairs of an FFT batch are gathered at once, at most 1.5
    times as many as the batch's R has entries.  So the peak is set by the
    d = 1 row's blocked transforms when it takes the FFT route, not by the
    batches: a second call at (2, 1025, 262605) peaks at 10.6 MiB of traced
    allocations, w (2 MiB) included.  A fold allocates O(m), and a
    contiguous copy of a strided row; at (3, 100, 398107) a second call
    peaks at 9.1 MiB, all of it from evaluating psi on the window.  Each
    piece is summed against Phi(q/Q) with compensated summation.

    Error budget, checked against residue binning on k = 2, 3, Q = 50,
    100, 200 and c = 0.5 to 2.8, with the route chosen by `_folds`, forced
    to fold and forced to the FFT: a_term, b_term and d_term agree to
    1e-12 relative, g_term to 1e-12 * a_term absolute and delta to 1e-14 *
    a_term absolute.  delta = A - B cancels as c grows (a_term / delta is
    1.6e5 at k = 3, c = 2.8, Q = 100, and 1.9e8 at k = 2), so its relative
    error may reach a_term / delta times that budget.  The largest errors
    seen on the grid are, for delta, 1.5e-15 * a_term on the FFT route
    and 8.2e-16 * a_term folded, and 9.1e-15 relative for d_term (the
    Möbius sum of T2_d cancels most).  The batch cap changes only the
    rounding, not this budget.
    """
    if psi.normalization is not Normalization.INTEGRAL_OF_SQUARE_ONE:
        raise ValueError("psi must be normalized to unit square integral")
    if phi.normalization is not Normalization.INTEGRAL_ONE:
        raise ValueError("phi must be normalized to unit integral")
    lo, w = psi.sample(X, 1)
    w *= table.window(lo, lo + w.size - 1)
    q_lo, phi_w = phi.sample(Q, 2)
    d, m, sign = _divisor_pairs(q_lo, q_lo + phi_w.size - 1)
    # one row u_d = w[start::d] of length n per d; its pairs are consecutive
    # from index `first`, by increasing m, so those with lags (m < n) are
    # the first `moduli` of them
    ds, first, row = np.unique(d, return_index=True, return_inverse=True)
    start = -(-lo // ds) * ds - lo
    n = np.maximum(-(-(w.size - start) // ds), 0)
    lags = np.maximum((n[row] - 1) // m, 0)  # the t >= 1 with t m < n
    moduli = np.bincount(row[lags > 0], minlength=ds.size)
    fold = (moduli > 0) & _folds(n, moduli)

    # batch key: the transform size of a short row, a key of its own for a
    # long row, 0 for a row that is folded or has no lags
    key = np.zeros(ds.size, dtype=np.int64)
    fft = (moduli > 0) & ~fold
    short = fft & (n <= _MIN_BLOCK)
    key[short] = _fft_size(2 * n[short] - 1)
    key[fft & ~short] = -1 - np.flatnonzero(fft & ~short)
    order = np.lexsort((n, key))
    t = np.empty(ds.size)
    t2 = np.empty(ds.size)
    lag_sum = np.zeros(d.size)
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        per = max(1, _BATCH // max(int(key[group[0]]), int(n[group[-1]]), 1))
        for b in range(0, group.size, per):
            batch = group[b : b + per]
            u = _rows(w, start[batch], ds[batch], n[batch])
            t[batch] = u.sum(axis=1)
            t2[batch] = np.einsum("ij,ij->i", u, u)
            if key[batch[0]]:
                p = _progressions(first[batch], 1, moduli[batch])
                pos = np.repeat(np.arange(batch.size), moduli[batch])
                lag_sum[p] = _lag_sums(_autocorrelation(u), pos, m[p], lags[p])
            for i in np.flatnonzero(fold[batch]).tolist():
                p = slice(first[batch[i]], first[batch[i]] + moduli[batch[i]])
                lag_sum[p] = _fold_lag_sums(u[i, : n[batch[i]]], m[p])

    at = d * m - q_lo
    coprime_sum = np.bincount(at, sign * t[row], phi_w.size)
    d_q = np.bincount(at, sign * t2[row], phi_w.size)
    g_q = 2 * np.bincount(at, sign * lag_sum, phi_w.size)
    totient = np.bincount(at, sign * m, phi_w.size)
    a_q = d_q + g_q
    b_q = coprime_sum * coprime_sum / totient

    def weighted(values):
        return math.fsum((phi_w * values).tolist())

    return VarianceBreakdown(
        delta=weighted(a_q - b_q),
        a_term=weighted(a_q),
        b_term=weighted(b_q),
        d_term=weighted(d_q),
        g_term=weighted(g_q),
    )


def short_interval_variance(table: DivisorTable, X: int, H: int) -> float:
    """Mean-square fluctuation of sum_{x<=n<=x+H} d_k(n) for x in [X, 2X].

    For integer H the window sum is constant on each open interval
    (m, m+1), equal to T(m+H) - T(m) with T the partial-sum function of
    d_k; the x-integral is therefore a rational evaluated exactly, piece
    by piece, in integer arithmetic, and rounded to float once at the end.
    Only d_k on [X + 1, 2X + H] is read: T(m) - T(X) for X <= m <= 2X + H
    is summed in an explicit uint64 accumulator, whatever the table's dtype.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    prefix = np.zeros(X + H + 1, dtype=np.uint64)
    np.cumsum(table.window(X + 1, 2 * X + H), dtype=np.uint64, out=prefix[1:])
    window = prefix[H : X + H] - prefix[:X]
    total, total_sq = _exact_sums(window)
    # exact: (1/X) sum S_m^2 - ((1/X) sum S_m)^2 over the X unit pieces
    return (X * total_sq - total * total) / (X * X)


def _exact_sums(w: np.ndarray) -> tuple[int, int]:
    """(sum w_i, sum w_i^2) of a uint64 array, exactly, as Python ints.

    Both are summed in int64 chunks short enough that no chunk sum can
    exceed 2^63 - 1, given the largest entry.
    """
    top = int(w.max(initial=0))
    limit = int(np.iinfo(np.int64).max)
    if top * top > limit:
        ints = w.tolist()
        return sum(ints), sum(v * v for v in ints)
    step = limit // max(top * top, 1)
    w = w.astype(np.int64)
    total = total_sq = 0
    for i in range(0, w.size, step):
        chunk = w[i : i + step]
        total += int(chunk.sum())
        total_sq += int(np.dot(chunk, chunk))
    return total, total_sq


def conjectured_values(
    k: int,
    Q: int,
    X: int,
    base: EulerConstantResult,
    a_tilde: EulerConstantResult,
    phi: Optional[SmoothWeight] = None,
) -> Prediction:
    """Predicted variance sizes at (k, Q, X), classified by range of c.

    `base` is the Euler product constant a_k and `a_tilde` its diagonal
    variant; gamma_k and the off-diagonal polynomial P_k are the memoised
    gamma_exact(k) and p_k(k).  The exact-q smooth prediction
    sum_q a_k(q) X gamma_k(log X/log q) (log q)^{k^2-1} Phi(q/Q) is filled
    in only when `phi` is given, with a_k(q) from one constants.a_k_of_q
    sieve over the moduli window.  Each gamma_k and P_k value is exact
    before its one rounding to float.
    """
    c = math.log(X) / math.log(Q)
    if not 0.0 < c < k:
        raise ValueError(f"c = log X/log Q = {c:.6f} outside (0, {k})")
    kk = k * k
    fact = math.factorial(kk - 1)
    scale = Q * X * math.log(Q) ** (kk - 1)
    gamma = gamma_exact(k)
    leading = a_tilde.value * gamma.eval_float(c) * scale
    diagonal = a_tilde.value * c ** (kk - 1) / fact * scale

    if c < 1.0:
        offdiag = 0.0
    elif c < 2.0:
        offdiag = a_tilde.value * p_k(k).eval_float(c) * scale
    else:
        offdiag = float("nan")

    exact_q = float("nan")
    if phi is not None:
        q_lo, pw = phi.sample(Q, 2)
        aq = a_k_of_q(k, q_lo, q_lo + pw.size - 1, base)
        lq = np.log(np.arange(q_lo, q_lo + pw.size))
        g = np.array([gamma.eval_float(c_q) for c_q in (math.log(X) / lq).tolist()])
        exact_q = math.fsum((aq * X * g * lq ** (kk - 1) * pw).tolist())

    return Prediction(
        c=c,
        regime=classify_regime(k, c),
        prediction_leading=leading,
        prediction_exact_q=exact_q,
        prediction_diagonal=diagonal,
        prediction_offdiagonal=offdiag,
    )
