"""Statistical test internals: KS tests (weighted two-sample and one-sample)
and chi-square goodness of fit, with critical values computed from the
asymptotic distributions rather than tables.

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


def chi2_sf(x, df):
    """Chi-square survival function via the regularized incomplete gamma."""
    from scipy.special import gammaincc  # imported here so the package loads without scipy

    if df <= 0:
        raise InvalidParameterError("df must be positive")
    if x <= 0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


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


def ks_1samp(values, cdf):
    """(D, p) for the one-sample KS test against a callable CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise InvalidParameterError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - f)
    lo = np.max(f - np.arange(0, n) / n)
    d = float(max(hi, lo))
    return d, _stephens_p(d, n)


def exponential_cdf(x, rate=1.0):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 1.0 - np.exp(-rate * x), 0.0)


def normal_cdf(x, mean=0.0, sd=1.0):
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)((x - mean) / (sd * math.sqrt(2.0))))


def poisson_chi2_gof(counts, lam, min_expected=5.0):
    """(stat, p, dof) chi-square goodness of fit of integer counts to Poisson(lam).

    Bins with expected count below ``min_expected`` are merged into their
    neighbours; lam is fixed (not fitted), so dof = bins - 1.
    """
    counts = np.asarray(counts, dtype=int)
    n = counts.size
    if n == 0:
        raise InvalidParameterError("empty sample")
    kmax = int(counts.max())
    ks = np.arange(kmax + 1)
    log_pmf = ks * math.log(lam) - lam - np.array(
        [math.lgamma(k + 1) for k in ks])
    pmf = np.exp(log_pmf)
    probs = np.append(pmf, max(0.0, 1.0 - pmf.sum()))  # right tail bin
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    observed = np.append(observed, 0.0)

    # merge adjacent bins until every expected count is large enough
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, probs * n):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and merged_exp:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    if len(merged_exp) < 2:
        raise InvalidParameterError("too few bins for a chi-square test")
    obs = np.array(merged_obs)
    exp = np.array(merged_exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(exp) - 1
    return stat, chi2_sf(stat, dof), dof
