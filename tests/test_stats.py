"""KS and chi-square statistics, the package's and tests/gof.py's, tested against
closed-form small cases."""

import math

import numpy as np
import pytest

from collapsim.errors import InvalidParameterError
from collapsim.stats import effective_sample_size, kolmogorov_sf, ks_2samp, ks_statistic
from gof import chi2_sf, exponential_cdf, ks_1samp, normal_cdf, poisson_chi2_gof

# Kolmogorov survival values frozen from the dual theta-series
# sf(x) = 1 - sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)), mpmath 30 digits
KOLMOGOROV_ORACLE = {
    0.5: 0.963945243664875094385913896282,
    1.0: 0.269999671677354521204900645585,
    1.5: 0.0222179626165251287205436146107,
}


class TestKolmogorov:
    def test_against_theta_series(self):
        for x, want in KOLMOGOROV_ORACLE.items():
            assert kolmogorov_sf(x) == pytest.approx(want, rel=1e-12)

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(5.0) == pytest.approx(2.0 * math.exp(-50.0), rel=1e-6)


class TestChi2:
    def test_two_dof_closed_form(self):
        for x in (0.5, 2.0, 7.3):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)

    def test_one_dof_closed_form(self):
        for x in (0.3, 1.0, 4.0):
            assert chi2_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), rel=1e-12)

    def test_bad_df(self):
        with pytest.raises(InvalidParameterError):
            chi2_sf(1.0, 0)


class TestKsStatistic:
    def test_hand_case(self):
        assert ks_statistic([1.0, 2.0], [1.5, 2.5]) == pytest.approx(0.5)

    def test_identical_samples(self):
        x = [0.1, 0.7, 0.3]
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_samples(self):
        assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == pytest.approx(1.0)

    def test_weight_splitting_invariance(self):
        # duplicating a point with half weights leaves the ECDF unchanged
        x = np.array([0.3, 1.2, 2.0])
        w = np.array([1.0, 1.0, 1.0])
        x2 = np.array([0.3, 0.3, 1.2, 2.0])
        w2 = np.array([0.5, 0.5, 1.0, 1.0])
        ref = np.array([0.5, 1.5, 2.5])
        assert ks_statistic(x, ref, w, None) == pytest.approx(
            ks_statistic(x2, ref, w2, None), abs=1e-15)

    def test_two_sample_p_value_behaviour(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000)
        _, p_same, n1, n2 = ks_2samp(a, b)
        assert p_same > 0.01
        assert n1 == 4000 and n2 == 4000
        _, p_diff, _, _ = ks_2samp(a, b + 0.3)
        assert p_diff < 1e-6

    def test_weighted_detects_reweighted_shift(self):
        # exponential tilting of a normal sample shifts its weighted law
        rng = np.random.default_rng(2)
        z = rng.standard_normal(5000)
        w = np.exp(0.8 * z - 0.32)  # mean-one weights, shifts mean to 0.8
        target = rng.standard_normal(5000) + 0.8
        _, p, _, _ = ks_2samp(z, target, w, None)
        assert p > 0.01
        _, p_bad, _, _ = ks_2samp(z, target)
        assert p_bad < 1e-6


class TestOneSample:
    def test_uniform_sample(self):
        rng = np.random.default_rng(3)
        u = rng.random(2000)
        _, p = ks_1samp(u, lambda x: np.clip(x, 0.0, 1.0))
        assert p > 0.01

    def test_exponential_cdf_helper(self):
        assert exponential_cdf(0.0) == 0.0
        assert exponential_cdf(2.0, rate=0.5) == pytest.approx(1 - math.exp(-1.0))

    def test_normal_cdf_helper(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)


class TestPoissonGof:
    def test_true_poisson_passes(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(6.0, size=10_000)
        stat, p, dof = poisson_chi2_gof(counts, 6.0)
        assert p >= 0.01
        assert dof >= 2

    def test_wrong_rate_fails(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(6.0, size=10_000)
        _, p, _ = poisson_chi2_gof(counts, 7.0)
        assert p < 1e-6


class TestEffectiveSampleSize:
    def test_equal_weights(self):
        assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)

    def test_dominant_weight(self):
        w = np.array([1000.0] + [1e-6] * 99)
        assert effective_sample_size(w) < 1.001

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises(self, bad):
        with pytest.raises(InvalidParameterError):
            effective_sample_size([bad, 1.0])

    def test_negative_weight_raises(self):
        with pytest.raises(InvalidParameterError):
            effective_sample_size([2.0, -0.5, 1.0])

    def test_zero_mass_is_zero(self):
        assert effective_sample_size([0.0, 0.0]) == 0.0
        assert effective_sample_size([]) == 0.0
