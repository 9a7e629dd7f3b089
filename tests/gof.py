"""Goodness-of-fit statistics that only the tests use: the one-sample KS test,
two closed-form CDFs, and the chi-square test of counts against Poisson(lam).

The one-sample KS p-value takes the package's Kolmogorov tail with the same
small-sample correction as ``collapsim.stats.ks_2samp``; the chi-square tail
is scipy's regularized incomplete gamma.
"""

import math

import numpy as np
from scipy.special import gammaincc

from collapsim.errors import InvalidParameterError
from collapsim.stats import _stephens_p


def chi2_sf(x, df):
    """Chi-square survival function via the regularized incomplete gamma."""
    if df <= 0:
        raise InvalidParameterError("df must be positive")
    if x <= 0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


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
