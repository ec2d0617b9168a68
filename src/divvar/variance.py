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
n_d, or straight from the spectra of real FFTs, cut into at most 8
equal blocks for long sequences and batched into 2-D transforms for
short ones, about n_d log n_d, without forming the autocorrelation:
beside the spectra, 16-20 bytes per n, only three buffers of one
block's transform are live.  That is sum_d min(|M_d| n_d, n_d log n_d)
work, at most O(X log X log Q), instead of the O(QX) of binning every
modulus by residue class.  A fold passes over a long sequence once per
root, not once per modulus: the class sums mod m are a fold of those
mod any multiple of m, so a greedy cover of the moduli by common
multiples, each at most max(max m, n_d / 8), serves them all from a
third as many passes at (k, Q, X) = (3, 100, 398107).  When the d = 1
sequence, the window w itself, folds, it serves every other one:
u_d = w[s_d::d], so the class sums of u_d mod m are the strided view
C_q[s_d::d] of those of w mod q = dm, which w's fold forms anyway.  No
other sequence is then gathered, folded or transformed, and only one
C_q is held at a time.  When w takes the FFT route, a sequence that
folds is folded on its own, from one contiguous copy, and the FFT
batches carry only the sequences on the FFT route.  `delta_k` states the
derivation, the memory per n and the error budget against that binning,
which lives under tests/ as the oracle.
Rows u_d too short to have lags need only their sums, and are gathered
flat.  No step holds a Python float per modulus: the weighted sums over
the moduli are exact, rounded once (`summation.exact_sum`), and the
exact-q prediction evaluates gamma_k at every modulus as one array
(`PiecewisePolynomial.eval_floats`).
"""

from __future__ import annotations

import enum
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
        if len(spectra) == 1:  # one block holds every lag, at r size + t m
            p, first, num = np.arange(m.size), row * size + m, count
        else:
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


def _divisor_pairs(q_lo: int, q_hi: int):
    """The pairs (d, m), d squarefree, with q = dm in [q_lo, q_hi], by d.

    Returns (ds, mu(ds), count, m) as int64 arrays: the d that have pairs,
    increasing, with mu(d) and their numbers of pairs, and the m of every
    pair, ordered by d and then m.  So the pairs of ds[i] are count[i]
    consecutive entries of m, the first of them the least.
    """
    mu = sieve_multiplicative(1, q_hi, lambda p, e: -1 if e == 1 else 0, np.int8)
    ds = np.flatnonzero(mu) + 1
    m_lo = -(-q_lo // ds)
    count = q_hi // ds - m_lo + 1
    live = count > 0
    ds, m_lo, count = ds[live], m_lo[live], count[live]
    return ds, mu[ds - 1].astype(np.int64), count, _progressions(m_lo, 1, count)


def modulus_bytes(q_lo: int, q_hi: int) -> int:
    """An upper bound on the bytes `delta_k` and `conjectured_values` take
    for the moduli q_lo <= q <= q_hi, found in O(1).

    Pairs: L = q_hi - q_lo + 1 consecutive integers hold at most L/d + 1
    multiples of d, at most one when d > L and none when d > q_hi, so the
    pairs (d, m) of `_divisor_pairs` number at most L H_L + q_hi, where
    H_L <= ln L + 1 < floor(ln L) + 2.  `delta_k` peaks at its last
    np.bincount, holding 6 words a pair: m, the row index, the lag sum and
    q - q_lo, and mu(d) m with its float64 copy in np.bincount.  Beside
    them it holds about 11 words per squarefree d (d, mu(d), pair count,
    first pair, start, length, sums, batch keys) and 4 per modulus.  11
    words a pair of the count above cover all of it: only squarefree d
    have pairs, so on [Q, 2Q] the pairs are 0.55 to 0.59 of that count for
    Q = 10^2 ... 10^6.  Per modulus, `conjectured_values` holds at most 12
    words: a_k(q), log q, phi(q/Q), c_q and gamma_k(c_q), then two
    temporaries of the weighted terms and exact_sum's frexp mantissas,
    exponents (half a word) and mantissa halves; eval_floats works on a
    fixed-size batch of moduli at a time.  Per integer of [1, q_hi], the
    mu sieve holds at most 2 words: int8 values, cofactors (4 bytes below
    2^32, else 8) and the one-byte mask of those above 1.  The three are
    summed, although they are not live together.

    At k = 2, X = 100 and [q_lo, q_hi] = [Q, 2Q], the tracemalloc peak of
    `delta_k` plus that of `conjectured_values` is 5.7 MB at Q = 10^4,
    62.2 MB at Q = 10^5 and 691 MB at Q = 10^6 (`delta_k` alone: 68, 64
    and 62 B a pair; `conjectured_values` 0.81, 6.95 and 69.1 MB, or 81,
    70 and 69 B a modulus); this bound reads 12.7 MB, 145 MB and 1.62 GB
    there.
    """
    span = q_hi - q_lo + 1
    pairs = span * (int(math.log(span)) + 2) + q_hi
    return 8 * (11 * pairs + 12 * span + 2 * q_hi)


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
# _FOLD_OVERHEAD stays at the 16000 measured before wide folds, which
# keeps every route choice at the sweep-k2 and cache-k3 points (at 12000,
# 264 more rows fold at each c = 1.8 point of sweep-k2).  At n = 100001
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


def _folds(n, moduli, ms):
    """Whether folding beats the FFT route, elementwise, for rows of length n
    with the given numbers of live moduli, each row's moduli folded on
    their own; except row 0, the d = 1 row, with live moduli ms, which
    folds when the work of its roots (`_roots`) is less.

    Row 0's roots are not planned to decide when folding each of its
    moduli on its own already costs less (the row folds), when it is
    shorter than _PLAN_COST (each modulus is then its own root), or when
    no plan can win: each modulus takes at least one fold, and each fold of
    the row serves at most the most moduli that one M <= cap is a multiple
    of, which one np.bincount over the multiples of ms finds.
    """
    fft = _FFT_COST * n * np.log2(np.maximum(n, 1))
    out = moduli * (n + _FOLD_OVERHEAD) < fft
    if out[0] or not moduli[0] or n[0] < _PLAN_COST:
        return out
    n0 = int(n[0])
    most = np.bincount(_progressions(ms, ms, _cap(ms, n0) // ms)).max()
    if -(-ms.size // most) * n0 + ms.size * _FOLD_OVERHEAD < fft[0]:
        work = sum(n0 + _FOLD_OVERHEAD + sum(M + _FOLD_OVERHEAD for q in qs if q != M)
                   for M, qs in _roots(ms, n0))
        out[0] = work < fft[0]
    return out


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
    the pairs (d, m) with q = dm in range.  `_divisor_pairs` groups them by
    d, with one mu(d) and one pair count per d, so a pair holds only its m,
    its row and its lag sum: mu(d) multiplies T_d and T2_d per d before
    they are gathered to the pairs.

    A row's lag sums are needed at its live moduli M_d, the m with
    m < n_d, and each row with lags takes the cheaper of two routes to them:

    - folding (`_class_sums`): the class sums S of u_d mod m, at most
      about |M_d| n_d work, and the lag sum
      sum_{t>=1} R_d(t m) = (sum_a S_a^2 - T2_d) / 2.  A row of 2^17 or
      more is folded once per root, a common multiple M <= max(max M_d,
      n_d / 8) of the moduli it serves (`_roots`), and each root's class
      sums down to those moduli, M additions each: the class sums mod m
      are a fold of those mod any multiple of m;
    - the FFT route: the lag sums straight from the block spectra of u_d
      (`_block_spectra`, `_lag_sums`), about n_d log n_d work; R_d is
      never formed.

    `_folds` picks the fold when |M_d| (n_d + _FOLD_OVERHEAD) is below
    _FFT_COST n_d log2 n_d, two costs measured as stated beside them, and
    for the d = 1 row also when the work of its roots is: at
    (3, 300, round(300^2.8)) its 301 moduli take 77 roots, and a call took
    0.8-1.2 s against 2.0-2.9 s by the FFT route, which folding each
    modulus on its own would not have beaten (single runs, 2-vCPU x86-64
    box, 165 MiB of RSS against 293).  So the work is
    sum_d min(|M_d| n_d, n_d log n_d), at most O(X log X log Q), where
    binning every modulus separately costs O(QX).

    When the d = 1 row folds, its class sums serve every pair.  The row
    u_1 = w is folded through the roots of its live moduli q, and every
    pair (d, m) with lags has q = dm among them: m < n_d gives
    d m <= s_d + d (n_d - 1) < |w|.  The row u_d has u_d[i] = w[s_d + d i]
    with s_d < d, and i = r (mod m) holds exactly when s_d + d i =
    s_d + d r (mod q), where s_d + d r < q; so the class sums of u_d mod m
    are the m entries C_q[s_d::d] of those of w mod q, over the same
    values, and the lag sum is formed from them as above.  The pairs are
    taken as their q come, in root order, one C_q at a time.  T_d is the
    sum of the view of the row's first pair, and T2_d one reduction over
    the strided w[s_d::d] (np.einsum: strided BLAS dots stall as
    `_FOLD_ENTRIES` states).  So no row d >= 2 is gathered, folded or
    transformed.  At (k, Q, X) = (3, 100, 398107) the d = 1 row folds its
    101 moduli through 31 roots: 12.3 M entries of w and 2.6 M of the
    roots' class sums, and it serves the 446 pairs of the 122 rows with
    lags; a call took 14.1 ms (median of 41 calls in one process, on a
    2-vCPU x86-64 box).  At (3, 100, 10^5) the row, 100,001 long, is below
    _PLAN_COST and folds once per modulus.  When the d = 1 row takes the
    FFT route, each other row takes its own: at (2, 1025, 262605) 527 of
    1246 rows fold, but none of the rows d <= 23, such as the d = 1 row
    with its 1026 moduli, whose choice plans no roots.  A row that folds
    is then folded from one contiguous copy of w[s_d::d], which gives T_d
    as its sum, T2_d as one np.einsum and its lag sums by `_class_sums` as
    above.  Only the rows on the FFT route are read from w as the rows of
    2-D arrays.

    On the FFT route a row longer than 2^14 is a batch of its own, cut
    into B = ceil(n / max(ceil(n/8), 2^14)) equal blocks of L = ceil(n/B),
    so the d = 1 row, of length X, never needs a transform of length 2X
    and its temporaries, and no short last block costs a whole transform.
    Shorter rows are one block each, grouped by transform size, and each
    group is cut into batches of at most _BATCH = 2^17 entries (rows times
    size), one 2-D transform each.  T_d and T2_d are the row sums of u and
    u^2.  The lags t m of an FFT batch are gathered one inverse block at a
    time, only those in its window.  When
    q_hi <= 2 q_lo (Phi supported in [1, 2], as in the CLI) a row's live
    moduli are the integers in some [a, b], b <= 2a, and
    sum_{a <= m <= 2a} 1/m <= 3/2, so a window of 2L - 1 lags holds at
    most 1.5 (2L - 1) + |M_d| of them, and a single block at most 1.5 n_d:
    0.69 per entry of the inverse at most, on the oracle grid and the
    sweep-k2 points.  Rows with no lags take no batch: their values are
    gathered flat by `_progressions`, in parts of at most w.size entries
    plus one row, and summed row by row by np.add.reduceat; rows with
    n_d = 0 are skipped.  At c < 1 no row has lags: at (2, 10^6, 10^3),
    where 1,215 of the 1,215,877 rows hold any n, the call takes about
    1 s, most of it in passes over the 10^7 pairs.

    Memory per n of the psi window: w takes 8 B, and a row on the FFT
    route its block spectra, 16-20 B per n of the row (the transform size
    is 2L - 1 rounded up by at most 25 %), and three buffers of one
    block's transform.  The long rows come after the short ones, and a
    long d = 1 row last: its T and T2 are summed first, and once its
    spectra exist w is dropped, so w and the d = 1 row's spectra are live
    together only while the spectra are taken, never beside the inverse
    buffers.
    So the peak is set by the d = 1 row when it takes the FFT route: a
    second call at (2, 1025, 262605) peaks at 7.3 MiB of traced
    allocations, 29 B per n, and `variance --k 2 --q 46416 --x 10^7` at
    362 MiB of RSS.  A fold allocates O(m), and a row folded on its own
    one contiguous copy of itself.  When the d = 1 row serves, beside w
    only one root and one live modulus are held: C_M, at most
    max(2Q, |w| / 8) entries, C_q, and the fold's products of at most
    _FOLD_ENTRIES entries.  At (3, 100, 398107) a second call peaks at
    4.0 MiB, 10.6 B per n.  When the moduli outnumber the window, the
    pairs set the peak instead, at the closing np.bincount calls
    (`modulus_bytes` states what is live there): a second call at
    (2, 10^5, 100) peaks at 55.5 MB, 64 B for each of its 862,844 pairs,
    and at (2, 10^5, 100100), where the d = 1 row serves, at 58.7 MB, 68 B
    a pair.  Each piece is summed against Phi(q/Q) exactly and rounded
    once by `exact_sum`, which returns math.fsum's value.

    Error budget, checked against residue binning on k = 2, 3, Q = 50,
    100, 200 and c = 0.5 to 2.8, with the route chosen by `_folds` and
    forced to each of three: every row folds (so the d = 1 row serves
    them all), the d = 1 row takes the FFT route and every other row
    folds, and every row takes the FFT route.  a_term, b_term and d_term
    agree to 1e-12 relative, g_term to 1e-12 * a_term absolute and delta
    to 1e-14 * a_term absolute.  delta = A - B cancels as c grows
    (a_term / delta is 1.6e5 at k = 3, c = 2.8, Q = 100, and 1.9e8 at
    k = 2), so its relative error may reach a_term / delta times that
    budget.  The largest errors seen on the grid are, for delta,
    5.9e-16 * a_term when the d = 1 row serves, 2.1e-15 * a_term when it
    takes the FFT route and the others fold, and 1.1e-15 * a_term with
    every row on the FFT route, and 9.1e-15 relative for d_term (the
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
    ds, mu, count, m = _divisor_pairs(q_lo, q_lo + phi_w.size - 1)
    # one row u_d = w[start::d] of length n per d; its pairs are consecutive
    # from index `first`, by increasing m, so those with lags (m < n) are
    # the first `moduli` of them
    first = np.cumsum(count) - count
    row = np.repeat(np.arange(ds.size), count)
    start = -(-lo // ds) * ds - lo
    n = np.maximum(-(-(w.size - start) // ds), 0)
    moduli = np.bincount(row[m < n[row]], minlength=ds.size)
    fold = (moduli > 0) & _folds(n, moduli, m[: moduli[0]])

    t = np.zeros(ds.size)
    t2 = np.zeros(ds.size)
    # rows without lags need only T_d and T2_d: gathered flat, at most about
    # w.size entries at a time, and summed row by row
    free = np.flatnonzero((moduli == 0) & (n > 0))
    for part in _runs(free, (np.cumsum(n[free]) - 1) // w.size):
        u = w[_progressions(start[part], ds[part], n[part])]
        at = np.cumsum(n[part]) - n[part]
        t[part] = np.add.reduceat(u, at)
        t2[part] = np.add.reduceat(np.square(u, out=u), at)

    live = np.flatnonzero(moduli)
    lag_sum = np.zeros(m.size)
    if fold[0]:
        # the d = 1 row (row 0, u_1 = w) folds: each lag pair (d, m) reads
        # its class sums off those of w mod q = dm, as C_q[start::d], one q
        # at a time; T_d off the view of the row's first pair, T2_d by one
        # reduction over its strided values
        for i, s0, d in zip(live.tolist(), start[live].tolist(), ds[live].tolist()):
            v = w[s0::d]
            t2[i] = np.einsum("i,i", v, v)
        p = _progressions(first[live], 1, moduli[live])
        r = row[p]
        # the pairs of each q, one of the d = 1 row's live moduli
        pairs = defaultdict(list)
        for qi, i, ri, s0, d, head in zip(
                (ds[r] * m[p]).tolist(), p.tolist(), r.tolist(),
                start[r].tolist(), ds[r].tolist(), (p == first[r]).tolist()):
            pairs[qi].append((i, ri, s0, d, head))
        for q, c in _class_sums(w, m[: moduli[0]]):
            for i, ri, s0, d, head in pairs[q]:
                s = c[s0::d]
                lag_sum[i] = s @ s
                if head:
                    t[ri] = s.sum()
        lag_sum[p] = (lag_sum[p] - t2[r]) / 2
        live = live[:0]  # no row is left to fold on its own or to batch
    for i in live[fold[live]].tolist():  # each row that folds on its own
        v = np.ascontiguousarray(w[start[i] :: ds[i]])
        t[i] = v.sum()
        t2[i] = np.einsum("i,i", v, v)
        p = slice(first[i], first[i] + moduli[i])
        by_q = {q: s @ s for q, s in _class_sums(v, m[p])}
        lag_sum[p] = (np.array([by_q[q] for q in m[p].tolist()]) - t2[i]) / 2
    live = live[~fold[live]]

    # batch key: the transform size of a short row, and for a long row a key
    # of its own above every transform size, the largest for the d = 1 row
    # (row 0), which so comes last
    key = np.zeros(ds.size, dtype=np.int64)
    key[live] = np.where(n[live] <= _MIN_BLOCK, _fft_size(2 * n[live] - 1),
                         _BATCH + ds.size - live)
    order = live[np.lexsort((n[live], key[live]))]
    for group in _runs(order, key[order]):
        per = max(1, _BATCH // int(key[group[0]]))
        for b in range(0, group.size, per):
            batch = group[b : b + per]
            u = _rows(w, start[batch], ds[batch], n[batch])
            t[batch] = u.sum(axis=1)
            t2[batch] = np.einsum("ij,ij->i", u, u)
            p = _progressions(first[batch], 1, moduli[batch])
            pos = np.repeat(np.arange(batch.size), moduli[batch])
            lags = (n[batch[pos]] - 1) // m[p]  # the t >= 1 with t m < n
            spectra, block = _block_spectra(u)
            if batch[-1] == order[-1]:  # no batch follows: drop w
                del w, u
            lag_sum[p] = _lag_sums(spectra, block, pos, m[p], lags)
            del spectra

    at = ds[row] * m - q_lo
    coprime_sum = np.bincount(at, (mu * t)[row], phi_w.size)
    d_q = np.bincount(at, (mu * t2)[row], phi_w.size)
    g_q = 2 * np.bincount(at, mu[row] * lag_sum, phi_w.size)
    totient = np.bincount(at, mu[row] * m, phi_w.size)
    a_q = d_q + g_q
    b_q = coprime_sum * coprime_sum / totient
    return VarianceBreakdown(
        delta=exact_sum(phi_w * (a_q - b_q)),
        a_term=exact_sum(phi_w * a_q),
        b_term=exact_sum(phi_w * b_q),
        d_term=exact_sum(phi_w * d_q),
        g_term=exact_sum(phi_w * g_q),
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
    phi: SmoothWeight,
) -> Prediction:
    """Predicted variance sizes at (k, Q, X), classified by range of c.

    `base` is the Euler product constant a_k and `a_tilde` its diagonal
    variant; gamma_k and the off-diagonal polynomial P_k are the memoised
    gamma_exact(k) and p_k(k).  The exact-q smooth prediction
    sum_q a_k(q) X gamma_k(log X/log q) (log q)^{k^2-1} Phi(q/Q) takes
    a_k(q) from one constants.a_k_of_q sieve over the moduli window and
    gamma_k(c_q) for every modulus from one eval_floats call, within the
    a-priori Horner bound g_{2n+1} sum_i |a_i| |h|^i that eval_floats
    states.  The leading, diagonal and off-diagonal gamma_k and P_k
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

    q_lo, pw = phi.sample(Q, 2)
    aq = a_k_of_q(k, q_lo, q_lo + pw.size - 1, base)
    lq = np.log(np.arange(q_lo, q_lo + pw.size))
    g = gamma.eval_floats(math.log(X) / lq)
    exact_q = exact_sum(aq * X * g * lq ** (kk - 1) * pw)

    return Prediction(
        c=c,
        regime=classify_regime(k, c),
        prediction_leading=leading,
        prediction_exact_q=exact_q,
        prediction_diagonal=diagonal,
        prediction_offdiagonal=offdiag,
    )
