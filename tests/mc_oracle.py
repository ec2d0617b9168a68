"""The Monte-Carlo estimate of gamma_k(c) one c at a time: the reference
`gammapoly.gamma_mc_oracle` is checked against.

`gamma_mc_reference` draws its own seeded uniforms for its one c, lays the
full points out as a strided (b, k) array and multiplies all C(k, 2)
squared differences on every row, rejected rows included, before zeroing
those.  The grid oracle draws the same uniforms once for every c and
multiplies in a different order on the accepted rows alone, so the two
agree to rounding, not bit for bit.
"""

import math

import numpy as np

from divvar.gammapoly import barnes_g


def gamma_mc_reference(k, c, samples, seed):
    """(estimate, standard error) of gamma_k(c) from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    norm = 1.0 / (math.factorial(k) * barnes_g(k + 1) ** 2)
    batch = 1 << 18
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        w = rng.random((b, k - 1))
        last = c - w.sum(axis=1)
        ok = (last >= 0.0) & (last <= 1.0)
        pts = np.concatenate([w, last[:, None]], axis=1)
        vals = np.ones(b)
        for i in range(k):
            for j in range(i + 1, k):
                vals *= (pts[:, i] - pts[:, j]) ** 2
        vals = np.where(ok, vals, 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = math.sqrt(var / samples)
    return mean * norm, std_err * norm
