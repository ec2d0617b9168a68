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
(n, q) = 1).  What the moduli need that does not depend on X (Phi, mu
from sieve.sieve_multiplicative on [1, 2Q], phi(q) and log q) is built
once per run, O(Q) words (`moduli_plan`).  For each X, T_d = sum u_d
and T2_d = sum u_d^2 come for every d from one sweep over the multiples
in the window (`_multiple_sums`), and their sums over the d | q reach
every modulus (`_divisor_sums`, its transpose): strided slices both,
with no pair (d, m), q = dm, or (d, j), n = dj, generated.  The lag
sums come one of two ways, decided once per call.  The d = 1 sequence,
the window w itself, may fold into its class sums modulo each of its
|M_1| moduli q, about |M_1| X work, and serve every other sequence:
u_d = w[s_d::d], so the class sums of u_d mod m are the strided view
C_q[s_d::d] of those of w mod q = dm.  No other sequence is then
gathered, folded or transformed, and only one C_q is held at a time.  A
fold passes over w once per root, not once per modulus: the class sums
mod q are a fold of those mod any multiple of q, so a greedy cover of
the moduli by common multiples, each at most max(max q, X / 8), serves
them all from a third as many passes at (k, Q, X) = (3, 100, 398107).
Otherwise every u_d takes its lag sums straight from the spectra of real
FFTs, cut into at most 8 equal blocks for long sequences and batched
into 2-D transforms for short ones, about n_d log n_d for a sequence of
length n_d, without forming the autocorrelation: beside the spectra,
16-20 bytes per n, only three buffers of one block's transform are
live.  w serves when its folds cost less than the FFT route of every
sequence, so the work is at most sum_d n_d log n_d, O(X log X log Q),
instead of the O(QX) of binning every modulus by residue class.
`delta_k` states the derivation, the memory per n and the error budget
against that binning, which lives under tests/ as the oracle.
Only the u_d with lags are rows of the routes, and none is at c < 1.
No step holds a Python float per modulus: the weighted sums over
the moduli are exact, rounded once (`summation.exact_sum`), and the
exact-q prediction evaluates gamma_k at every modulus as one array
(`PiecewisePolynomial.eval_floats`).
"""

from __future__ import annotations

import enum
import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .constants import EulerConstantResult, a_k_of_q
from .gammapoly import gamma_exact, p_k
from .sieve import DivisorTable, sieve_multiplicative
from .summation import exact_sum
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


# A sequence is cut into as few equal blocks as blocks of at most
# max(n / _MAX_BLOCKS, _MIN_BLOCK) allow, so one of at most _MIN_BLOCK
# takes a single transform.
_MIN_BLOCK = 2**14
_MAX_BLOCKS = 8
# Short sequences of one transform size are transformed together, as the
# rows of 2-D transforms of at most this many entries (rows times size).
_BATCH = 2**17


# Transform sizes o 2^a, o in {1, 3, 5, 9, 15}: lengths the FFT handles at
# full speed, spaced at most 25 % apart (powers of two alone are 100 %)
_FFT_SIZES = np.array(sorted(o << a for o in (1, 3, 5, 9, 15) for a in range(58)))


def _fft_size(n):
    """The least transform size >= n, for an int or elementwise for an array."""
    return _FFT_SIZES[np.searchsorted(_FFT_SIZES, n)]


def _block_spectra(u: np.ndarray):
    """(spectra, L): the rows of u cut into equal blocks of length L, each
    block's real FFT zero-padded to _fft_size(2L - 1).

    Each row of u (a 1-D u is one row) is a sequence of length n; all rows
    share every transform, as 2-D real FFTs along the last axis.  The rows
    are cut into B = ceil(n / max(ceil(n/8), 2^14)) blocks of L = ceil(n/B),
    the last up to B - 1 shorter: so n <= 2^14 is one block, and no short
    last block costs a whole transform (n = 17507 takes two transforms of
    18432, not those of 32768 that blocks of 2^14 and 1123 would).  The
    padding keeps the circular correlation of two blocks from wrapping.
    Zeros at the end of a row do not change its lags, so sequences of
    different lengths can share one array as zero-padded rows.
    """
    n = u.shape[-1]
    blocks = -(-n // max(-(-n // _MAX_BLOCKS), _MIN_BLOCK))
    block = -(-n // max(blocks, 1))
    size = _fft_size(2 * block - 1)
    return [np.fft.rfft(u[..., i * block : (i + 1) * block], size)
            for i in range(blocks)], block


def _lag_sums(spectra, block: int, row, m, count) -> np.ndarray:
    """sum_{t=1}^{count[i]} R[row[i], t m[i]] for each i (count[i] >= 1),
    R[h] = sum_j u[j] u[j+h] the autocorrelation of the rows whose blocks
    of length `block` have the given spectra (`_block_spectra`).

    R is never formed.  For each block offset j, sum_i conj(F_i) F_{i+j}
    is accumulated in one reused buffer (a second holds each product) and
    inverted into a third.  That inverse holds the lag jL + g of row r at
    r size + g for 0 <= g < L and at r size + size + g for -L < g < 0, so
    each half of its window is one progression per pair with lags there.
    Only the pairs with lags in the window are gathered, by one
    `_progressions` and one np.add.reduceat, before the next offset reuses
    the buffers.  So beside the spectra only three buffers of one block's
    transform are live, and no gather is longer than the lags of one
    window.
    """
    size = int(_fft_size(2 * block - 1))
    out = np.zeros(m.size)
    acc = np.empty_like(spectra[0])
    tmp = np.empty_like(acc) if len(spectra) > 1 else None
    corr = np.empty(acc.shape[:-1] + (size,))
    for j in range(len(spectra)):
        np.conjugate(spectra[0], out=acc)
        acc *= spectra[j]
        for i in range(1, len(spectra) - j):
            np.conjugate(spectra[i], out=tmp)
            tmp *= spectra[i + j]
            acc += tmp
        np.fft.irfft(acc, size, out=corr)
        # the pairs p, each lag progression's first index and its length
        base = j * block
        halves = [(base, base + block, -base)]
        if j:
            halves.append((base - block + 1, base, size - base))
        parts = []
        for lo, hi, shift in halves:  # lo <= t m < hi, at r size + t m + shift
            t_lo = np.maximum(-(-lo // m), 1)
            num = np.minimum((hi - 1) // m, count) - t_lo + 1
            p = np.flatnonzero(num > 0)
            parts.append((p, row[p] * size + t_lo[p] * m[p] + shift, num[p]))
        p, first, num = (np.concatenate(x) for x in zip(*parts))
        if p.size:
            lags = corr.reshape(-1)[_progressions(first, m[p], num)]
            np.add.at(out, p, np.add.reduceat(lags, np.cumsum(num) - num))
            del lags
    return out


def _progressions(first, step, count) -> np.ndarray:
    """first[i] + step[i] t for 0 <= t < count[i], concatenated over i.

    Every count must be >= 1; step may be a scalar.  Built as one running
    sum over the output array, in place.
    """
    out = np.repeat(np.broadcast_to(step, count.shape), count)
    last = first + step * (count - 1)
    out[np.cumsum(count) - count] = first - np.concatenate(([0], last[:-1]))
    return np.cumsum(out, out=out)


def _divisor_sums(g: np.ndarray, q_lo: int, q_hi: int) -> np.ndarray:
    """sum_{d | q} g[d - 1] for each q_lo <= q <= q_hi, with g(d) = 0 at every
    d > g.size.

    The pairs (d, m), q = dm, split at s = isqrt(q_hi), the hyperbola
    method: each d <= s with g[d - 1] != 0 adds it into the stride-d slice
    of its multiples, in increasing d; then m runs from s down to 1, and
    adds the run g[lo - 1 : hi] of the d > s with dm in the window into one
    stride-m slice.  A pair with d > s has m <= q_hi / (s + 1) < s + 1, so
    every pair is added once, and the terms of each q come in increasing d:
    the d <= s first, then the d > s as m falls.  That is the order of
    np.add.at, or of one np.bincount, over every pair by d and then m, so
    the sums are theirs to the bit, and no pair is generated: at most about
    2 sqrt(q_hi) slices, with work at most the number of pairs.  The zeros
    of g add nothing, skipped or not: x + 0.0 = x + (-0.0) = x unless x is
    -0.0, and a sum that starts at 0.0 never is.
    """
    out = np.zeros(q_hi - q_lo + 1)
    s = math.isqrt(q_hi)
    for d in (np.flatnonzero(g[:s]) + 1).tolist():
        out[-(-q_lo // d) * d - q_lo :: d] += g[d - 1]
    for m in range(s, 0, -1):
        lo, hi = max(s + 1, -(-q_lo // m)), min(q_hi // m, g.size)
        if lo <= hi:  # else the stop could be negative, and wrap around
            out[lo * m - q_lo : hi * m - q_lo + 1 : m] += g[lo - 1 : hi]
    return out


def _multiple_sums(w: np.ndarray, lo: int, mu: np.ndarray) -> tuple:
    """(T, T2): T[d - 1] and T2[d - 1] the sums of w_n and of w_n^2 over the
    multiples n of d in the window [lo, hi] of w (w[i] = w_{lo + i},
    hi = lo + w.size - 1), for each d <= mu.size; 0 at the d <= isqrt(hi)
    with mu[d - 1] = 0.

    The transpose of `_divisor_sums`: the pairs (d, j), n = dj, split at
    s = isqrt(hi).  Each d <= s with mu[d - 1] != 0 sums its stride-d view
    of w, by sum and by np.einsum (strided BLAS dots stall as
    `_FOLD_ENTRIES` states), with no copy.  Then for each j <= s the run
    a <= d <= b of the d > s with dj in the window is one stride-j slice of
    w, added into T[a - 1 : b], and its square into T2[a - 1 : b].  A d > s
    has every multiple at j <= hi / (s + 1) < s + 1, so every pair is added
    once: about 2 sqrt(hi) slices, with work at most the number of pairs.
    The one temporary is the square of one run, at most mu.size - s
    entries, and at most w.size / j + 1: so as long as w only at j = 1,
    which needs lo <= mu.size, where the moduli's O(mu.size) words
    outweigh it.
    """
    hi = lo + w.size - 1
    t = np.zeros(mu.size)
    t2 = np.zeros(mu.size)
    s = math.isqrt(hi)
    for d in (np.flatnonzero(mu[:s]) + 1).tolist():
        v = w[-(-lo // d) * d - lo :: d]
        t[d - 1] = v.sum()
        t2[d - 1] = np.einsum("i,i", v, v)
    for j in range(1, s + 1):
        a, b = max(s + 1, -(-lo // j)), min(hi // j, mu.size)
        if a <= b:
            v = w[a * j - lo : b * j - lo + 1 : j]
            t[a - 1 : b] += v
            t2[a - 1 : b] += v * v
    return t, t2


@dataclass(frozen=True)
class ModuliPlan:
    """The moduli q_lo <= q <= q_hi of Delta_k(Q;X) and its prediction,
    everything about them that does not depend on X (`moduli_plan`)."""

    q_lo: int
    weight: np.ndarray  # Phi(q/Q)
    mu: np.ndarray  # mu(d) for 1 <= d <= q_hi, int8
    totient: np.ndarray  # phi(q), int64
    log_q: np.ndarray


@functools.lru_cache(maxsize=1)
def moduli_plan(Q: int, phi: SmoothWeight) -> ModuliPlan:
    """The `ModuliPlan` of the moduli q >= 2 with q/Q in phi's support.

    One entry is memoised, so the calls of one run at one Q share it: Phi
    is sampled once, mu by one sieve_multiplicative over [1, q_hi] and
    phi(q) by one over the window, and log q is taken once.  mu stays the
    dense int8 array the sieve returns: `delta_k` takes its squarefree d,
    and each one's count = floor(q_hi/d) - ceil(q_lo/d) + 1 multiples
    q = dm in the window, from it for each X.
    """
    q_lo, weight = phi.sample(Q, 2)
    q_hi = q_lo + weight.size - 1
    mu = sieve_multiplicative(1, q_hi, lambda p, e: -1 if e == 1 else 0, np.int8)
    totient = sieve_multiplicative(q_lo, q_hi, lambda p, e: (p - 1) * p ** (e - 1),
                                   np.int64)
    arrays = (weight, mu, totient, np.log(np.arange(q_lo, q_hi + 1)))
    for a in arrays:
        a.setflags(write=False)  # every caller of the memo shares them
    return ModuliPlan(q_lo, *arrays)


def modulus_bytes(q_lo: int, q_hi: int) -> int:
    """An upper bound on the bytes `delta_k` and `conjectured_values` take
    for the moduli q_lo <= q <= q_hi, found in O(1): O(q_hi) words.

    Per modulus, at most 16 words: the plan's Phi(q/Q), phi(q) and log q;
    `delta_k`'s two sums over the divisors of each q, g_q, a_q, b_q and two
    temporaries, the square b_q is formed from or a weighted term and the
    difference it is formed from (7 words); `conjectured_values`' a_k(q),
    c_q, gamma_k(c_q), (log q)^{k^2-1} and two temporaries of its weighted
    term (6 words, which also cover the a_k(q) sieve's values, cofactors
    and mask).  `exact_sum` holds about 4 words a value of one piece of
    2^16 values and its bins, at most 2.1 MiB whatever the count of
    moduli: no term of its own, as the slack of summing terms that are not
    all live together covers it from Q = 10^4 on (the peaks below).  Per
    integer of [1, q_hi], at most 14 words: the plan's
    dense mu(d) (a byte); `delta_k`'s T_d and T2_d, dense over
    d <= min(2X, q_hi), and the square of one run of `_multiple_sums`
    (3 words); the dense mu(d) T_d, then mu(d) T2_d (a word); and at most
    14 words per squarefree d: picking the rows takes d, its length,
    m_lo, live moduli, their temporaries and the copies kept, and a row
    with lags holds those, its start, mu, first pair, the FFT costs
    `_serves` sums, its batch key and what the keys are sorted by.  The
    multiples of 4 or 9 are not squarefree, so there are at most
    2 q_hi / 3 + 2 of them, under 10 words per integer; the mu sieve's
    int8 values, cofactors and mask, at most 10 bytes per integer, are
    freed before `delta_k` starts.  The terms are summed, although they
    are not all live together.  The pairs with lags (m < n_d) are not
    counted: they exist only once the window of n is longer than q_lo,
    and `delta_k` states their cost.

    At k = 2 and [q_lo, q_hi] = [Q, 2Q], the tracemalloc peak of building
    the plan, `delta_k` and `conjectured_values` is 1.1 and 1.3 MB at
    (Q, X) = (10^4, 100) and (10^4, 5000), 9.6 and 11.7 MB at (10^5, 100)
    and (10^5, 5 10^4), 14.5 MB at (10^5, 10^5), where every squarefree
    d <= 2Q is a row, and 76 and 97 MB at (10^6, 100) and (10^6, 5 10^5)
    (10.4, 12.4, 15.3, 103 and 124 MB while exact_sum binned each array
    as one piece); this bound reads 3.5, 35.2 and 352 MB there, and 3.5 GB
    at Q = 10^7, where `variance --k 2 --q 10^7 --x 10^6` peaked at 758
    MiB of RSS in the larger of 2 runs, imports included (1025 MiB while
    exact_sum binned each array as one piece, 1071 MiB while the rows were
    every d with an n).
    """
    span = q_hi - q_lo + 1
    return 8 * (16 * span + 14 * q_hi)


def _runs(idx: np.ndarray, labels: np.ndarray) -> list:
    """idx cut into runs of equal labels (labels sorted along idx); none if empty."""
    return np.split(idx, np.flatnonzero(np.diff(labels)) + 1) if idx.size else []


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


# Each product of a narrow fold has at most this many entries: OpenBLAS
# splits a gemv of 9216 entries or more across two threads, and on a
# loaded 2-vCPU box such a call stalled for 4-8 ms (a scheduler tick) in
# most calls of some runs, against 5 us on one thread.
_FOLD_ENTRIES = 2**13


# The lag sums of a row of length n cost the time of _FFT_COST n log2 n
# folded entries by `_block_spectra` and `_lag_sums`; by `_class_sums`,
# n + _FOLD_OVERHEAD for each root and M + _FOLD_OVERHEAD for each
# modulus folded down from a root M.  Planning costs about 25 us a root,
# the time of folding about 80,000 entries, and a root saves one pass over
# the row for each further modulus it serves, so rows shorter than
# _PLAN_COST are not planned.  Measured on a 2-vCPU x86-64 box (numpy 2.4,
# OpenBLAS 0.3.31): a fold costs 0.30-0.37 ns per entry, narrow or wide,
# and 2.3 us per call, 3-4 us per modulus with its lag sum, 8000-13000
# entries; the FFT route 2.2-4.4 ns per n log2 n, 6 to 12 folded entries.
# _FOLD_OVERHEAD stays at the 16000 measured before wide folds; at 12000
# the route of every sweep-k2 and cache-k3 call would be the same.  At n = 100001
# and the 101 moduli 100 ... 200 the planned fold took 3.2 ms and the
# unplanned one 2.2 ms; at n = 398108, 6.9 ms and 12.3 ms.
_FFT_COST = 8.0
_FOLD_OVERHEAD = 16000
_PLAN_COST = 2**17


def _fold(v: np.ndarray, m: int, ones: np.ndarray) -> np.ndarray:
    """The class sums of the 1-D v mod m: S_a = sum of v_j over j = a (mod m),
    for 0 <= a < m, as a new array.

    v is read as k = len(v) // m whole rows of length m and the rest.  A
    narrow fold (m <= _FOLD_ENTRIES / 2) sums the rows by BLAS products
    with the vector of ones, stacked in products of at most _FOLD_ENTRIES
    entries each, then the rows left over; a wide one sums all k rows in
    place by one np.add.reduce, which copies nothing and runs on one thread.
    """
    n = v.size
    k = n // m
    if 2 * m > _FOLD_ENTRIES:
        s = np.add.reduce(v[: k * m].reshape(k, m), axis=0)
    else:
        rows = _FOLD_ENTRIES // m  # the first `stacked` rows go in products of `rows`
        stacked = k // rows * rows
        s = ones[: k - stacked] @ v[stacked * m : k * m].reshape(-1, m)
        if stacked:
            s += (ones[:rows] @ v[: stacked * m].reshape(-1, rows, m)).sum(axis=0)
    s[: n - k * m] += v[k * m :]
    return s


def _cap(ms, n: int) -> int:
    """The largest root `_roots` takes for the increasing moduli ms of a
    length-n sequence: max(max ms, n // 8)."""
    return max(int(ms[-1]), n // 8)


def _roots(ms, n: int) -> list:
    """A greedy cover of the increasing moduli ms of a length-n sequence by
    roots: a list of (M, qs), each root M <= cap = max(max ms, n // 8) a
    common multiple of the moduli qs it serves, and every modulus served by
    exactly one root.

    The largest modulus q not yet served takes the multiple M = j q that
    the most moduli not yet served divide, the least such j on ties, and M
    serves them all: r divides j q exactly when r / gcd(r, q) divides j, so
    one np.bincount over the multiples of those quotients counts every
    j <= cap // q.  No root then serves fewer moduli than q alone would.
    The cap keeps each fold of a root's class sums down to a modulus at
    most an eighth of a pass over the sequence, or the largest modulus.
    A sequence shorter than _PLAN_COST, or moduli no root could serve two
    of (cap < 2 min ms), take each modulus as its own root, unplanned.
    """
    cap = _cap(ms, n)
    if n < _PLAN_COST or cap < 2 * ms[0]:
        return [(q, [q]) for q in ms.tolist()]
    left = ms[::-1]
    roots = []
    while left.size:
        q = int(left[0])
        most = cap // q
        g = left // np.gcd(left, q)
        small = g[g <= most]
        j = int(np.argmax(np.bincount(_progressions(small, small, most // small))))
        serve = j % g == 0
        roots.append((j * q, left[serve].tolist()))
        left = left[~serve]
    return roots


def _class_sums(u: np.ndarray, ms):
    """Yield (q, C_q) for each modulus q of ms, in the order of their roots
    (`_roots`): C_q the class sums of the 1-D u mod q, S_a = sum of u_j
    over j = a (mod q), for 0 <= a < q.

    With them, sum_a S_a^2 counts each pair j, j' = j + t q once for t = 0
    and twice for t >= 1, so the lag sum sum_{t>=1} R(t q) of u is
    (sum_a S_a^2 - sum u^2) / 2.  u is folded once per root M (`_fold`),
    about len(u) additions, and C_M down to each q | M it serves, M
    additions, which is C_M itself when q = M: j = a (mod q) exactly when
    j mod M = a (mod q).  Only one C_M and one C_q are held at a time; each
    is a new array, which the next one does not reuse.
    """
    ones = np.ones(min(u.size, _FOLD_ENTRIES))
    for root, qs in _roots(ms, u.size):
        c = _fold(u, root, ones)
        for q in qs:
            yield q, (c if q == root else _fold(c, q, ones))


def _serves(n, ms) -> bool:
    """Whether w, row 0 of the rows with lags (of lengths n), folds through
    its live moduli ms and serves every row: whether the work of its roots
    (`_roots`) is less than the FFT route of every row.

    The roots are not planned when folding w once per modulus already
    costs less (w serves), when w is shorter than _PLAN_COST (each
    modulus is then its own root), or when no plan could beat even w's own
    FFT route: each modulus takes at least one fold, and each fold of w
    serves at most the most moduli that one M <= cap is a multiple of,
    which one np.bincount over the multiples of ms finds.
    """
    fft = _FFT_COST * n * np.log2(n)
    total, n0 = float(fft.sum()), int(n[0])
    if ms.size * (n0 + _FOLD_OVERHEAD) < total:
        return True
    if n0 < _PLAN_COST:
        return False
    most = np.bincount(_progressions(ms, ms, _cap(ms, n0) // ms)).max()
    if -(-ms.size // most) * n0 + ms.size * _FOLD_OVERHEAD >= fft[0]:
        return False
    work = sum(n0 + _FOLD_OVERHEAD + sum(M + _FOLD_OVERHEAD for q in qs if q != M)
               for M, qs in _roots(ms, n0))
    return work < total


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
    length n_d, about X/d, and every sum over d | q adds a term of each
    pair (d, m) with q = dm in range.  The moduli come from `moduli_plan`,
    built by the first call at a Q and reused by the next: Phi(q/Q), mu(d)
    as one dense int8 array over d <= 2Q, and phi(q) from one
    sieve_multiplicative over the moduli.  T_d and T2_d come for every
    d <= min(2X, 2Q) from one sweep over the multiples n = dj in the
    window (`_multiple_sums`): a stride-d view of w for each squarefree
    d <= sqrt(2X), then one stride-j slice of w for each j <= sqrt(2X),
    added into the T_d of the run of d > sqrt(2X) with dj in the window.
    A d with no n has T_d = T2_d = 0, and adds only to phi(q), which the
    plan holds.  The sums of mu(d) T_d and of mu(d) T2_d over the d | q
    come for every q from `_divisor_sums`, over the dense products: the
    transposed sweep, strided slices that add the terms of each q in the
    order of one np.bincount over every pair, by d and then m, so its
    sums to the bit.  So T_d and T2_d do not depend on the routes below,
    and no pair (d, m) or (d, j) is generated but the pairs with lags:
    each adds mu(d) times its lag sum, which depends on m, into the sum
    of its q by np.add.at.

    A row's lag sums are needed at its live moduli M_d, the m with
    m < n_d.  The rows are only the squarefree d with lags, none at c < 1,
    where no route runs.  `_serves` decides once per call which of two
    routes every row takes:

    - w serves: the d = 1 row u_1 = w is folded (`_class_sums`) into its
      class sums S mod each of its live moduli q, about |M_1| n_1 work at
      most, every other row reads its own off them (below), and the lag
      sum is sum_{t>=1} R_d(t m) = (sum_a S_a^2 - T2_d) / 2.  A w of 2^17
      or more is folded once per root, a common multiple M <= max(max M_1,
      n_1 / 8) of the moduli it serves (`_roots`), and each root's class
      sums down to those moduli, M additions each: the class sums mod q
      are a fold of those mod any multiple of q;
    - the FFT route: every row takes its lag sums straight from its block
      spectra (`_block_spectra`, `_lag_sums`), about n_d log n_d work;
      R_d is never formed.

    w serves when its folds cost less than _FFT_COST n_d log2 n_d summed
    over every row, costs measured as stated beside them: folding w once
    per modulus costs |M_1| (n_1 + _FOLD_OVERHEAD), and its
    roots are planned to weigh their work only when that is more, w is
    2^17 or longer, and a lower bound on their work beats w's own FFT
    route.  At (3, 300, round(300^2.8)) folding w once per modulus
    already costs 0.40 of the FFT route of every row, so no roots are
    planned to decide; the fold takes 77 roots for the 301 moduli, and a
    call took 0.8-1.2 s against 2.0-2.9 s by the FFT route (single runs,
    2-vCPU x86-64 box, 165 MiB of RSS against 293).  At
    (2, 1025, round(1025^1.95)) only the roots' work, 0.82 of the FFT
    route of every row, lets w serve.  At sweep-k2's (2, 1025, 262605)
    the lower bound is 1.33 times w's own FFT route, so the roots of its
    1026 moduli, 25-45 ms of planning, are not planned, and every row
    takes the FFT route.  So the work is at most sum_d n_d log n_d,
    O(X log X log Q), where binning every modulus separately costs O(QX).

    When w serves, its class sums serve every pair.  The row u_1 = w is
    folded through the roots of its live moduli q, and every pair (d, m)
    with lags has q = dm among them: m < n_d gives
    d m <= s_d + d (n_d - 1) < |w|.  The row u_d has u_d[i] = w[s_d + d i]
    with s_d < d, and i = r (mod m) holds exactly when s_d + d i =
    s_d + d r (mod q), where s_d + d r < q; so the class sums of u_d mod m
    are the m entries C_q[s_d::d] of those of w mod q, over the same
    values, and the lag sum is formed from them as above.  The pairs are
    taken as their q come, in root order, one C_q at a time.  So no row
    d >= 2 is gathered, folded or transformed.  At (k, Q, X) =
    (3, 100, 398107) the d = 1 row folds its 101 moduli through 31 roots:
    12.3 M entries of w and 2.6 M of the roots' class sums, and it serves
    the 446 pairs of the 122 rows with lags; a call took 16-18 ms (median
    of 41 calls in one process, on a 2-vCPU x86-64 box, as before the
    sweep).  At (3, 100, 10^5) the row, 100,001 long, is below
    _PLAN_COST and folds once per modulus.

    On the FFT route a row longer than 2^14 is a batch of its own, cut
    into B = ceil(n / max(ceil(n/8), 2^14)) equal blocks of L = ceil(n/B),
    so the d = 1 row, of length X, never needs a transform of length 2X
    and its temporaries, and no short last block costs a whole transform.
    Shorter rows are one block each, grouped by transform size, and each
    group is cut into batches of at most _BATCH = 2^17 entries (rows times
    size), one 2-D transform each.  The lags t m of an FFT batch are
    gathered one inverse block at a time, only those in its window.  When
    q_hi <= 2 q_lo (Phi supported in [1, 2], as in the CLI) a row's live
    moduli are the integers in some [a, b], b <= 2a, and
    sum_{a <= m <= 2a} 1/m <= 3/2, so a window of 2L - 1 lags holds at
    most 1.5 (2L - 1) + |M_d| of them, and a single block at most 1.5 n_d:
    0.69 per entry of the inverse at most, on the oracle grid and the
    sweep-k2 points.

    The sweep reads each multiple in the window once for T_d and once
    for T2_d, about 2 X log(min(2X, 2Q)) entries: at the sweep-k2 points
    (Q = 1025) it took 0.8 ms a call at c = 1.2 and 7-10 ms at c = 1.8,
    and at (3, 100, 398107) 6 ms (best of 7 calls, 2-vCPU x86-64 box).
    At c < 1 no d has lags, so a call is the sweep, the two
    `_divisor_sums` and the five exact sums over the moduli.  At Q = 10^6
    the plan took 0.11-0.12 s, and a call 0.14-0.17 s at X = 10^3 and
    0.21-0.24 s at X = 251,189 (c = 0.9), of which the sweep took 0.02 s
    and each `_divisor_sums` 0.04 s (best of 3 calls, 2-vCPU x86-64 box).

    Memory per n of the psi window: w takes 8 B, and a row on the FFT
    route its block spectra, 16-20 B per n of the row (the transform size
    is 2L - 1 rounded up by at most 25 %), and three buffers of one
    block's transform.  The long rows come after the short ones, and a
    long d = 1 row last: once its spectra exist w is dropped, so w and the
    d = 1 row's spectra are live together only while the spectra are
    taken, never beside the inverse buffers.
    So the peak is set by the d = 1 row when it takes the FFT route: a
    second call at (2, 1025, 262605) peaks at 7.3 MiB of traced
    allocations, 29 B per n, and `variance --k 2 --q 46416 --x 10^7` at
    362 MiB of RSS.  When w serves, beside it only one root and one live
    modulus are held: C_M, at most
    max(2Q, |w| / 8) entries, C_q, and the fold's products of at most
    _FOLD_ENTRIES entries.  At (3, 100, 398107) a second call peaks at
    4.0 MiB, 10.6 B per n.  The sweep allocates T_d and T2_d, dense over
    d <= min(2X, 2Q), and the square of one run of them.  When the moduli
    outnumber the window, they set the peak instead, O(Q) words
    (`modulus_bytes` states what is live): a second call at (2, 10^5, 100)
    peaks at 7.0 MB, 70 B a modulus, and at (2, 10^5, 100100), where the
    d = 1 row serves, at 12.0 MB, 120 B a modulus (7.8 and 12.7 MB while
    exact_sum binned each array as one piece, 20.5 MB at the second while
    the rows were every d with an n and their T_d were formed on each
    route, 58.7 MB while every pair was held).  The pairs with lags are
    held together, about 6 words each at the closing np.add.at: a row's
    lag sums come in route order, not by d.  There are at most
    sum_d min(|M_d|, n_d) of them, none at c < 1.  Each piece is summed
    against Phi(q/Q) exactly and rounded once by `exact_sum`, which
    returns math.fsum's value and allocates only for 2^16 values at a
    time: at (2, 10^7, 10^6) a call with the plan built peaks at 523 MB
    traced, what it holds on entering exact_sum and one piece's 2 MB (811
    MB while exact_sum binned each array as one piece).

    Error budget, checked against residue binning on k = 2, 3, Q = 50,
    100, 200 and c = 0.5 to 2.8, with the route chosen by `_serves` and
    forced to each of two: w serves every row, and every row takes the
    FFT route.  a_term, b_term and d_term agree to 1e-12 relative,
    g_term to 1e-12 * a_term absolute and delta to 1e-14 * a_term
    absolute.  delta = A - B cancels as c grows (a_term / delta is 1.6e5
    at k = 3, c = 2.8, Q = 100, and 1.9e8 at k = 2), so its relative error
    may reach a_term / delta times that budget.  The largest errors seen
    on the grid are, for delta, 5.6e-16 * a_term when w serves and
    1.2e-15 * a_term with every row on the FFT route, and 9.1e-15
    relative for d_term (the Möbius sum of T2_d cancels most), the same
    on both routes: b_term and d_term are the same to the bit whatever
    the route.  The batch cap changes only the rounding, not this budget.
    """
    if psi.normalization is not Normalization.INTEGRAL_OF_SQUARE_ONE:
        raise ValueError("psi must be normalized to unit square integral")
    if phi.normalization is not Normalization.INTEGRAL_ONE:
        raise ValueError("phi must be normalized to unit integral")
    lo, w = psi.sample(X, 1)
    w *= table.window(lo, lo + w.size - 1)
    plan = moduli_plan(Q, phi)
    q_hi = plan.q_lo + plan.weight.size - 1
    # T_d and T2_d for every d <= min(hi, q_hi), hi = lo + w.size - 1
    t, t2 = _multiple_sums(w, lo, plan.mu[: lo + w.size - 1])
    # one row u_d = w[start::d] of length n per squarefree d with lags: its
    # pairs (d, m) run from m = m_lo, and those with lags (m < n) are the
    # first `moduli` of them
    ds = np.flatnonzero(plan.mu[: t.size]) + 1
    n = (lo + w.size - 1) // ds - (lo - 1) // ds
    m_lo = -(-plan.q_lo // ds)
    moduli = np.minimum(n - m_lo, q_hi // ds - m_lo + 1)
    keep = moduli > 0
    ds, n, m_lo, moduli = ds[keep], n[keep], m_lo[keep], moduli[keep]
    start = -(-lo // ds) * ds - lo
    mu = plan.mu[ds - 1]
    # the pairs with lags, row by row: the m of row i's from index first[i]
    first = np.cumsum(moduli) - moduli
    row = np.repeat(np.arange(ds.size), moduli)
    m = _progressions(m_lo, 1, moduli)
    lag_sum = np.zeros(m.size)
    # no row has lags at c < 1, and then no route runs
    if ds.size and _serves(n, m[: moduli[0]]):
        # w serves: the d = 1 row (row 0, u_1 = w) folds, and each pair (d, m)
        # reads its class sums off those of w mod q = dm, as C_q[start::d],
        # one q at a time
        pairs = defaultdict(list)  # the pairs of each q, one of w's moduli
        for i, (q, s0, d) in enumerate(zip((ds[row] * m).tolist(), start[row].tolist(),
                                           ds[row].tolist())):
            pairs[q].append((i, s0, d))
        for q, c in _class_sums(w, m[: moduli[0]]):
            for i, s0, d in pairs[q]:
                s = c[s0::d]
                lag_sum[i] = s @ s
        lag_sum = (lag_sum - t2[ds[row] - 1]) / 2
    else:
        # every row takes the FFT route.  Batch key: the transform size of a
        # short row, and for a long row a key of its own above every transform
        # size, the largest for the d = 1 row (row 0), which so comes last
        key = np.where(n <= _MIN_BLOCK, _fft_size(2 * n - 1),
                       _BATCH + ds.size - np.arange(ds.size))
        order = np.lexsort((n, key))
        for group in _runs(order, key[order]):
            per = max(1, _BATCH // int(key[group[0]]))
            for b in range(0, group.size, per):
                batch = group[b : b + per]
                u = _rows(w, start[batch], ds[batch], n[batch])
                p = _progressions(first[batch], 1, moduli[batch])
                pos = np.repeat(np.arange(batch.size), moduli[batch])
                lags = (n[batch[pos]] - 1) // m[p]  # the t >= 1 with t m < n
                spectra, block = _block_spectra(u)
                if batch[-1] == order[-1]:  # no batch follows: drop w
                    del w, u
                lag_sum[p] = _lag_sums(spectra, block, pos, m[p], lags)
                del spectra

    # mu(d) T_d and mu(d) T2_d summed over the d | q of each modulus; the
    # lag sums by np.add.at, since a pair's depends on m
    coprime_sum = _divisor_sums(plan.mu[: t.size] * t, plan.q_lo, q_hi)
    d_q = _divisor_sums(plan.mu[: t.size] * t2, plan.q_lo, q_hi)
    g_q = np.zeros(plan.weight.size)
    np.add.at(g_q, ds[row] * m - plan.q_lo, 2 * mu[row] * lag_sum)
    a_q = d_q + g_q
    b_q = coprime_sum * coprime_sum / plan.totient
    return VarianceBreakdown(
        delta=exact_sum(plan.weight * (a_q - b_q)),
        a_term=exact_sum(plan.weight * a_q),
        b_term=exact_sum(plan.weight * b_q),
        d_term=exact_sum(plan.weight * d_q),
        g_term=exact_sum(plan.weight * g_q),
    )


# `short_interval_variance` forms its window sums this many at a time
_PIECE = 2**16


def short_interval_variance(table: DivisorTable, X: int, H: int) -> float:
    """Mean-square fluctuation of sum_{x<=n<=x+H} d_k(n) for x in [X, 2X].

    For integer H the window sum is constant on each open interval
    (m, m+1), equal to S_m = T(m+H) - T(m) with T the partial-sum function
    of d_k; the x-integral is therefore a rational evaluated exactly, piece
    by piece, in integer arithmetic, and rounded to float once at the end.
    Only d_k on [X + 1, 2X + H] is read.  S_X is the sum of its first H
    values, and S_{m+1} = S_m + d_k(m + H + 1) - d_k(m + 1), so the window
    sums are formed 2^16 at a time as one uint64 running sum of those
    differences from the S_m the last piece ended on: exact, since it is
    exact modulo 2^64 and every S_m is below 2^64, whatever the table's
    dtype.  Each piece is summed into exact Python ints, so only the 2^16
    values of one piece are allocated, whatever X and H are.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    values = table.window(X + 1, 2 * X + H)
    first = int(values[:H].sum(dtype=np.uint64))  # S_m at the piece's first m
    total = total_sq = 0
    for i in range(0, X, _PIECE):
        j = min(i + _PIECE, X)
        window = np.empty(j - i, dtype=np.uint64)
        window[0] = first
        np.subtract(values[i + H : j + H - 1], values[i : j - 1], out=window[1:],
                    dtype=np.uint64)
        np.cumsum(window, out=window)
        first = int(window[-1]) + int(values[j + H - 1]) - int(values[j - 1])
        s, s2 = _exact_sums(window)
        total += s
        total_sq += s2
    # exact: (1/X) sum S_m^2 - ((1/X) sum S_m)^2 over the X unit pieces
    return (X * total_sq - total * total) / (X * X)


def _exact_sums(w: np.ndarray) -> tuple[int, int]:
    """(sum w_i, sum w_i^2) of a uint64 array, exactly, as Python ints.

    When every square fits in int64, the plain sum is exact in uint64 (for
    fewer than 2^32 values, each below 2^32), and the squares, taken in
    place in an int64 copy, are summed in chunks short enough that no
    chunk sum can exceed 2^63 - 1: one np.add.reduceat sums every chunk,
    and Python adds the chunk totals.  Otherwise both are Python-int sums.
    """
    top = int(w.max(initial=0))
    limit = int(np.iinfo(np.int64).max)
    if top * top > limit:
        ints = w.tolist()
        return sum(ints), sum(v * v for v in ints)
    total = int(w.sum())
    step = limit // max(top * top, 1)
    w = w.astype(np.int64)
    w *= w
    chunks = np.add.reduceat(w, np.arange(0, w.size, step))
    return total, sum(chunks.tolist())


# a_k(q) on the moduli of the last run, which `conjectured_values` takes at
# every X
_a_k_of_q = functools.lru_cache(maxsize=1)(a_k_of_q)


def conjectured_values(
    k: int,
    Q: int,
    X: int,
    base: EulerConstantResult,
    a_tilde: EulerConstantResult,
    phi: SmoothWeight,
) -> Prediction:
    """Predicted variance sizes at (k, Q, X), classified by range of c.

    `base` is the Euler product constant a_k and `a_tilde` its diagonal
    variant; gamma_k and the off-diagonal polynomial P_k are the memoised
    gamma_exact(k) and p_k(k).  The exact-q smooth prediction
    sum_q a_k(q) X gamma_k(log X/log q) (log q)^{k^2-1} Phi(q/Q) takes
    Phi(q/Q) and log q from `moduli_plan`, a_k(q) from one
    constants.a_k_of_q sieve over the moduli window, memoised as the plan
    is, and gamma_k(c_q) for every modulus from one eval_floats call,
    within the a-priori Horner bound g_{2n+1} sum_i |a_i| |h|^i that
    eval_floats states.  The leading, diagonal and off-diagonal gamma_k and P_k
    values are exact before their one rounding to float, and the sum over
    the moduli is exact before its one rounding (`exact_sum`).
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

    plan = moduli_plan(Q, phi)
    aq = _a_k_of_q(k, plan.q_lo, plan.q_lo + plan.weight.size - 1, base)
    lq = plan.log_q
    g = gamma.eval_floats(math.log(X) / lq)
    exact_q = exact_sum(aq * X * g * lq ** (kk - 1) * plan.weight)

    return Prediction(
        c=c,
        regime=classify_regime(k, c),
        prediction_leading=leading,
        prediction_exact_q=exact_q,
        prediction_diagonal=diagonal,
        prediction_offdiagonal=offdiag,
    )
