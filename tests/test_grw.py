"""Jump-process tests: waiting times, flash sampling, trajectory identities."""

import math

import numpy as np
import pytest

from collapsim import (
    Grid,
    GrwParams,
    HamiltonianSpec,
    flash_density,
    gaussian_hit,
    grw_trajectory,
    make_gaussian_packet,
    norm2,
    sample_flash_center,
    sample_jump_times,
)
from collapsim.errors import DegenerateStateError, InvalidParameterError
from collapsim.grid import WaveFunction, normalize
from collapsim.rng import ROLE_FLASH_NOISE, ROLE_FLASH_POSITION
from collapsim.stats import ks_1samp, normal_cdf, poisson_chi2_gof
from reference import stream

# mpmath oracle: N(0.4; 0, 1 + 1/(2*2)) for |psi|^2 = N(0,1), alpha = 2
FLASH_DENSITY_ORACLE = 0.334703468146928646287973840161


def packet(sigma=1.0, center=0.0):
    return make_gaussian_packet(Grid(256, -20.0, 20.0), center, sigma)


class TestJumpTimes:
    def test_empty_at_vanishing_window(self):
        rng = stream(1, 0, 0)
        assert sample_jump_times(5.0, 1e-12, rng).size == 0

    def test_strictly_increasing_and_bounded(self):
        rng = stream(2, 0, 0)
        times = sample_jump_times(20.0, 2.0, rng)
        assert np.all(np.diff(times) > 0)
        assert times[-1] <= 2.0

    def test_poisson_mean(self):
        # oracle: count mean/variance of Poisson(mu t) = 10
        counts = [sample_jump_times(10.0, 1.0, stream(3, i, 0)).size
                  for i in range(10_000)]
        mean = np.mean(counts)
        se = math.sqrt(10.0 / 10_000)
        assert abs(mean - 10.0) <= 3.0 * se

    def test_poisson_count_chi2(self):
        counts = np.array([sample_jump_times(4.0, 1.0, stream(4, i, 0)).size
                           for i in range(10_000)])
        _, p, _ = poisson_chi2_gof(counts, 4.0)
        assert p >= 0.01

    def test_gap_distribution_exponential(self):
        rng = stream(5, 0, 0)
        times = sample_jump_times(50.0, 250.0, rng)
        gaps = 50.0 * np.diff(times)[:10_000]
        _, p = ks_1samp(gaps, lambda x: 1.0 - np.exp(-x))
        assert p >= 0.01

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            sample_jump_times(0.0, 1.0, stream(6, 0, 0))


class TestFlashDensity:
    def test_normalizes_over_y(self):
        phi = packet()
        ys = np.linspace(-20.0, 20.0, 4001)
        vals = flash_density(phi, 1.5, ys)
        integral = np.trapezoid(vals, ys)
        assert abs(integral - 1.0) <= 1e-6

    def test_equals_hit_norm2(self):
        phi = packet(sigma=0.7, center=0.5)
        for y in (-3.0, 0.0, 1.2):
            lhs = flash_density(phi, 2.0, y)
            rhs = norm2(gaussian_hit(phi, y, 2.0))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_closed_form_value(self):
        phi = packet()
        assert flash_density(phi, 2.0, 0.4) == pytest.approx(
            FLASH_DENSITY_ORACLE, rel=1e-10)


class TestFlashCenter:
    def test_variance_matches_convolution(self):
        # oracle: Var(Y) = sigma^2 + 1/(2 alpha)
        phi = packet(sigma=1.0)
        alpha = 0.8
        rng = stream(7, 0, ROLE_FLASH_POSITION)
        noise = stream(7, 0, ROLE_FLASH_NOISE)
        n = 100_000
        ys = np.array([sample_flash_center(phi, alpha, rng, noise)
                       for i in range(n)])
        target = 1.0 + 1.0 / (2.0 * alpha)
        var = ys.var(ddof=1)
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(var - target) <= 3.0 * se

    def test_point_like_packet_delta_limit(self):
        # dx = 1/32 resolves sigma = 0.05; the default dx = 0.156 cannot
        phi = make_gaussian_packet(Grid(256, -4.0, 4.0), 1.5, 0.05)
        rng = stream(8, 0, ROLE_FLASH_POSITION)
        ys = [sample_flash_center(phi, 400.0, rng) for _ in range(2000)]
        assert abs(np.mean(ys) - 1.5) < 0.01

    def test_symmetric_mean_zero(self):
        phi = packet()
        rng = stream(9, 0, ROLE_FLASH_POSITION)
        ys = np.array([sample_flash_center(phi, 1.0, rng) for _ in range(20_000)])
        se = ys.std(ddof=1) / math.sqrt(ys.size)
        assert abs(ys.mean()) <= 3.0 * se

    def test_law_matches_flash_density(self):
        # single-jump law for H = 0: Y ~ N(0, sigma^2 + 1/(2 alpha))
        phi = packet()
        alpha = 1.0
        ys = np.array([
            sample_flash_center(phi, alpha,
                                stream(10, i, ROLE_FLASH_POSITION),
                                stream(10, i, ROLE_FLASH_NOISE))
            for i in range(10_000)])
        sd = math.sqrt(1.0 + 1.0 / (2.0 * alpha))
        _, p = ks_1samp(ys, lambda x: normal_cdf(x, 0.0, sd))
        assert p >= 0.01

    def test_degenerate_state(self):
        g = Grid(16, -1.0, 1.0)
        dead = WaveFunction(g, np.zeros(16, dtype=complex))
        with pytest.raises(DegenerateStateError):
            sample_flash_center(dead, 1.0, stream(11, 0, 0))


class TestGrwTrajectory:
    def test_h0_snapshot_is_product_of_hits(self):
        grid = Grid(256, -20.0, 20.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h0 = HamiltonianSpec.zero(grid)
        p = GrwParams(mu=6.0, alpha=1.2, t_max=1.0, sample_times=(0.4, 1.0))
        rec = grw_trajectory(phi, h0, p, seed=21)
        assert len(rec.flashes) > 0
        for t in p.sample_times:
            amps = phi.amplitudes.copy()
            for fl in rec.flashes:
                if fl.time <= t:
                    amps = amps * (1.2 / np.pi) ** 0.25 * np.exp(
                        -0.6 * (grid.x - fl.center) ** 2)
            expected = normalize(WaveFunction(grid, amps))
            got = rec.state_at(t)
            assert np.max(np.abs(got.amplitudes - expected.amplitudes)) <= 1e-10

    def test_flash_event_norm2_matches_density(self):
        grid = Grid(256, -20.0, 20.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h0 = HamiltonianSpec.zero(grid)
        p = GrwParams(mu=3.0, alpha=1.0, t_max=1.0)
        rec = grw_trajectory(phi, h0, p, seed=22)
        state = phi
        for fl in rec.flashes:
            assert fl.pre_collapse_norm2 == pytest.approx(
                flash_density(state, 1.0, fl.center), rel=1e-12)
            state = normalize(gaussian_hit(state, fl.center, 1.0))

    def test_mu_to_zero_is_pure_schrodinger(self):
        grid = Grid(256, -20.0, 20.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0, 0.5)
        h = HamiltonianSpec.free(grid)
        p = GrwParams(mu=1e-9, alpha=1.0, t_max=1.0, sample_times=(1.0,))
        rec = grw_trajectory(phi, h, p, seed=23)
        assert len(rec.flashes) == 0
        from collapsim import evolve_unitary
        pure = evolve_unitary(phi, h, 1.0)
        err = np.sqrt(np.sum(np.abs(rec.state_at(1.0).amplitudes
                                    - pure.amplitudes) ** 2) * grid.dx)
        assert err < 1e-12

    def test_snapshots_normalized_and_weights_one(self):
        grid = Grid(128, -16.0, 16.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h = HamiltonianSpec(grid, 0.5 * np.cos(grid.x))
        p = GrwParams(mu=5.0, alpha=2.0, t_max=1.0, sample_times=(0.2, 0.7, 1.0))
        rec = grw_trajectory(phi, h, p, seed=24)
        assert np.all(rec.weights == 1.0)
        for t in p.sample_times:
            assert abs(norm2(rec.state_at(t)) - 1.0) <= 1e-10

    def test_seed_determinism(self):
        grid = Grid(128, -16.0, 16.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h = HamiltonianSpec.free(grid)
        p = GrwParams(mu=4.0, alpha=1.0, t_max=1.0, sample_times=(0.5, 1.0))
        a = grw_trajectory(phi, h, p, seed=25)
        b = grw_trajectory(phi, h, p, seed=25)
        assert a.flashes == b.flashes
        for t in p.sample_times:
            assert np.array_equal(a.state_at(t).amplitudes,
                                  b.state_at(t).amplitudes)
        c = grw_trajectory(phi, h, p, seed=26)
        assert a.flashes != c.flashes

    def test_requires_normalized_input(self):
        grid = Grid(128, -16.0, 16.0)
        raw = WaveFunction(grid, np.exp(-grid.x**2).astype(complex))
        p = GrwParams(mu=4.0, alpha=1.0, t_max=1.0)
        with pytest.raises(InvalidParameterError):
            grw_trajectory(raw, HamiltonianSpec.free(grid), p, seed=1)

    def test_params_validation(self):
        with pytest.raises(InvalidParameterError):
            GrwParams(mu=-1.0, alpha=1.0, t_max=1.0)
        with pytest.raises(InvalidParameterError):
            GrwParams(mu=1.0, alpha=1.0, t_max=1.0, sample_times=(0.5, 0.5))
        with pytest.raises(InvalidParameterError):
            GrwParams(mu=1.0, alpha=1.0, t_max=1.0, sample_times=(2.0,))
