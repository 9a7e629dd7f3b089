"""The statistics the package's checks run on: the (weighted) two-sample KS
test, with its p-value computed from the asymptotic distribution rather
than tables, the effective sample size, and a mean with its standard error.

Weighted samples use the weighted empirical CDF and the effective sample
size (sum w)^2 / sum w^2, the standard practice for importance-sampled
data.  P-values use the Kolmogorov distribution with the small-sample
correction factor (sqrt(Ne) + 0.12 + 0.11/sqrt(Ne)).
"""

import math

import numpy as np

from .errors import InvalidParameterError


def kolmogorov_sf(x):
    """Survival function of the Kolmogorov distribution, 2 sum (-1)^{k-1} e^{-2k^2x^2}."""
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 200):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
        total += term
        if abs(term) < 1e-17:
            break
    return min(1.0, max(0.0, total))


def mean_se(g):
    """Sample mean of the terms g and its standard error (inf for fewer than two)."""
    mean = float(g.mean())
    se = float(g.std(ddof=1) / math.sqrt(g.size)) if g.size > 1 else float("inf")
    return mean, se


def effective_sample_size(weights):
    """(sum w)^2 / sum w^2; 0 for no weight mass.

    Raises InvalidParameterError on a NaN, infinite or negative weight,
    whose ESS would mean nothing.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise InvalidParameterError("weights must be finite and nonnegative")
    s = w.sum()
    q = (w * w).sum()
    return float(s * s / q) if q > 0 else 0.0


def _weighted_ecdf(values, weights):
    """Sorted support points and the left-closed cumulative weight function."""
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    c = np.cumsum(weights[order])
    total = c[-1]
    if not (total > 0):
        raise InvalidParameterError("weights sum to zero")
    return v, c / total


def ks_statistic(values1, values2, weights1=None, weights2=None):
    """sup_x |F1(x) - F2(x)| between two (weighted) empirical CDFs."""
    x1 = np.asarray(values1, dtype=float)
    x2 = np.asarray(values2, dtype=float)
    w1 = np.ones(x1.size) if weights1 is None else np.asarray(weights1, dtype=float)
    w2 = np.ones(x2.size) if weights2 is None else np.asarray(weights2, dtype=float)
    if x1.size == 0 or x2.size == 0:
        raise InvalidParameterError("empty sample")
    v1, c1 = _weighted_ecdf(x1, w1)
    v2, c2 = _weighted_ecdf(x2, w2)
    pooled = np.concatenate([v1, v2])
    f1 = np.concatenate([[0.0], c1])[np.searchsorted(v1, pooled, side="right")]
    f2 = np.concatenate([[0.0], c2])[np.searchsorted(v2, pooled, side="right")]
    return float(np.max(np.abs(f1 - f2)))


def _stephens_p(d, n_eff):
    en = math.sqrt(n_eff)
    return kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_2samp(values1, values2, weights1=None, weights2=None):
    """(D, p, n_eff1, n_eff2) for the (weighted) two-sample KS test."""
    d = ks_statistic(values1, values2, weights1, weights2)
    n1 = (len(np.atleast_1d(values1)) if weights1 is None
          else effective_sample_size(weights1))
    n2 = (len(np.atleast_1d(values2)) if weights2 is None
          else effective_sample_size(weights2))
    n_eff = n1 * n2 / (n1 + n2)
    return d, _stephens_p(d, n_eff), float(n1), float(n2)
