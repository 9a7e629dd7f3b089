"""Grid-core tests: packets, propagator, hits, flows, norms.

Derived expectations are frozen from independent oracles: closed-form
Gaussian integrals (mpmath, 30 digits) and the analytic free-Gaussian
evolution.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import (
    CollapseSpec,
    DegenerateStateError,
    Grid,
    GridMismatchError,
    GridTooSmallError,
    HamiltonianSpec,
    InvalidParameterError,
    StepTooLargeError,
    WaveFunction,
    boundary_mass,
    collapse_flow,
    cosine_potential,
    evolve_unitary,
    gaussian_hit,
    inner,
    make_gaussian_packet,
    norm2,
    normalize,
    position_mean,
    schrodinger_step,
)
from collapsim.grid import (
    _apply_split_step,
    _flow_rows,
    _hit_rows,
    _norm2_rows,
    _normalize_rows,
    _phasors,
    _split_phases,
    _unitary_rows,
    position_moments,
    position_variance,
)

# closed-form Gaussian integrals, mpmath quad to 30 digits
FLOW_NORM2_ORACLE = 0.961111655728003535763819051508  # lam=1, dxi=0.3, dt=0.1, sigma=1
HIT_NORM2_ORACLE = 0.276649360675295267795539678571   # alpha=1, center=0.7, sigma=1


def packet(n=256, lo=-20.0, hi=20.0, center=0.0, sigma=1.0, k=0.0):
    return make_gaussian_packet(Grid(n, lo, hi), center, sigma, k)


def free_gaussian_exact(grid, sigma, k0, t):
    """Analytic free evolution of a centered Gaussian packet (hbar = m = 1)."""
    x = grid.x
    tau = 1.0 + 1j * t / (2.0 * sigma**2)
    return ((2.0 * np.pi * sigma**2) ** (-0.25) / np.sqrt(tau)
            * np.exp(-((x - k0 * t) ** 2) / (4.0 * sigma**2 * tau))
            * np.exp(1j * (k0 * x - 0.5 * k0**2 * t)))


class TestGrid:
    def test_grid_geometry(self):
        g = Grid(8, -1.0, 1.0)
        assert g.dx == pytest.approx(0.25)
        assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(0.75)

    def test_grid_rejects_non_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            Grid(100, -1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Grid(4, -1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Grid(16, 1.0, -1.0)


class TestPacket:
    def test_normalized_by_construction(self):
        phi = packet()
        assert norm2(phi) == pytest.approx(1.0, abs=1e-12)
        assert phi.label == "normalized"

    def test_symmetric_mean_zero(self):
        assert abs(position_mean(packet())) < 1e-10

    def test_offcenter_mean_by_quadrature(self):
        # oracle: direct quadrature of x |phi|^2 on the grid
        phi = packet(center=2.0, sigma=0.5, k=1.0)
        d = np.abs(phi.amplitudes) ** 2 * phi.grid.dx
        oracle = float((phi.grid.x * d).sum())
        assert oracle == pytest.approx(2.0, abs=1e-8)
        assert position_mean(phi) == pytest.approx(oracle, abs=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(InvalidParameterError):
            packet(sigma=0.0)

    @pytest.mark.parametrize("name, kwargs", [
        ("sigma", {"sigma": math.nan}), ("sigma", {"sigma": math.inf}),
        ("center", {"center": math.nan}), ("momentum", {"k": math.nan}),
        ("momentum", {"k": math.inf}), ("momentum", {"k": -math.inf})])
    def test_non_finite_parameter_is_named(self, name, kwargs):
        # each used to end in "cannot normalize a numerically vanishing state"
        with pytest.raises(InvalidParameterError, match=name):
            packet(**kwargs)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            make_gaussian_packet(Grid(64, -2.0, 2.0), 0.0, 1.0)

    def test_unresolved_packet(self):
        # dx = 0.156: sigma = 0.05 aliases far beyond the 1e-8 budget,
        # sigma = 0.2 (1.28 dx) is still resolved
        grid = Grid(256, -20.0, 20.0)
        with pytest.raises(GridTooSmallError):
            make_gaussian_packet(grid, 1.5, 0.05)
        phi = make_gaussian_packet(grid, 1.5, 0.2)
        assert position_mean(phi) == pytest.approx(1.5, abs=1e-8)


class TestPositionMoments:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_rows_match_the_per_state_loop(self, dtype):
        # each row reduction gives the bits of the one-state formulas
        grid = Grid(128, -16.0, 16.0)
        rng = np.random.default_rng(3)
        amps = (rng.normal(size=(50, 128)) + 1j * rng.normal(size=(50, 128))).astype(dtype)
        amps *= np.exp(-0.05 * (grid.x - rng.uniform(-5, 5, size=(50, 1))) ** 2)
        means, variances = [], []
        for a in amps:
            d = np.abs(a) ** 2
            total = d.sum()
            m = float((grid.x * d).sum() / total)
            means.append(m)
            variances.append(float(((grid.x - m) ** 2 * d).sum() / total))
        mean, var = position_moments(amps, grid)
        assert mean.tolist() == means
        assert var.tolist() == variances
        phi = WaveFunction(grid, amps[7])
        assert (position_mean(phi), position_variance(phi)) == (means[7], variances[7])

    def test_vanishing_row_raises(self):
        grid = Grid(16, -4.0, 4.0)
        amps = np.ones((3, 16), dtype=complex)
        amps[1] = 0.0
        with pytest.raises(DegenerateStateError):
            position_moments(amps, grid)
        with pytest.raises(DegenerateStateError):
            position_variance(WaveFunction(grid, amps[1]))


class TestSchrodingerStep:
    def test_zero_dt_identity(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        assert schrodinger_step(phi, h, 0.0) is phi

    def test_negative_dt(self):
        phi = packet()
        with pytest.raises(InvalidParameterError):
            schrodinger_step(phi, HamiltonianSpec.free(phi.grid), -0.1)

    def test_free_gaussian_oracle_100_steps(self):
        grid = Grid(512, -48.0, 48.0)
        sigma, k0 = 1.0, 0.4
        phi = make_gaussian_packet(grid, 0.0, sigma, k0)
        h = HamiltonianSpec.free(grid)
        state = phi
        for _ in range(100):
            state = schrodinger_step(state, h, 0.1)
        exact = free_gaussian_exact(grid, sigma, k0, 10.0)
        exact *= np.sqrt(norm2(phi))  # grid-normalization factor
        err = np.sqrt(np.sum(np.abs(state.amplitudes - exact) ** 2) * grid.dx)
        assert err < 1e-6

    def test_unitarity_with_potential(self):
        phi = packet()
        h = HamiltonianSpec(phi.grid, cosine_potential(phi.grid, 0.7))
        state = phi
        for _ in range(50):
            state = schrodinger_step(state, h, 0.01)
        assert abs(norm2(state) - 1.0) <= 1e-12

    def test_unitarity_random_states(self):
        rng = np.random.default_rng(3)
        g = Grid(64, -10.0, 10.0)
        h = HamiltonianSpec(g, cosine_potential(g, 0.3))
        for _ in range(5):
            amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            psi = WaveFunction(g, amps)
            dt = rng.uniform(0.0, 0.1)
            out = schrodinger_step(psi, h, dt)
            assert abs(norm2(out) - norm2(psi)) <= 1e-10 * norm2(psi)

    def test_evolve_unitary_matches_composed_steps(self):
        phi = packet(n=128, lo=-16, hi=16)
        h = HamiltonianSpec(phi.grid, cosine_potential(phi.grid, 0.5))
        a = evolve_unitary(phi, h, 0.25, max_step=1.0 / 16.0)
        b = phi
        for _ in range(4):
            b = schrodinger_step(b, h, 0.25 / 4)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_h_zero_is_identity(self):
        phi = packet()
        h = HamiltonianSpec.zero(phi.grid)
        out = evolve_unitary(phi, h, 5.0)
        assert out is phi


class TestGaussianHit:
    def test_disjoint_support_kills_mass(self):
        phi = packet()
        hit = gaussian_hit(phi, 1e4, 1.0)
        assert norm2(hit) < 1e-8
        assert hit.label == "raw"

    def test_norm2_closed_form(self):
        # |phi|^2 = N(0,1); hit at 0.7 with alpha=1 -> N(0.7; 0, 1 + 1/2)
        phi = packet()
        got = norm2(gaussian_hit(phi, 0.7, 1.0))
        assert got == pytest.approx(HIT_NORM2_ORACLE, rel=1e-10)
        # cross-check by grid quadrature of the smeared density
        x = phi.grid.x
        quad = float((np.sqrt(1.0 / np.pi) * np.exp(-(x - 0.7) ** 2)
                      * np.abs(phi.amplitudes) ** 2).sum() * phi.grid.dx)
        assert got == pytest.approx(quad, rel=1e-12)

    def test_hit_semigroup(self):
        phi = packet()
        twice = gaussian_hit(gaussian_hit(phi, 0.0, 1.0), 0.0, 1.0)
        single = phi.amplitudes * (1.0 / np.pi) ** 0.5 * np.exp(-phi.grid.x**2)
        assert np.max(np.abs(twice.amplitudes - single)) < 1e-14

    def test_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            gaussian_hit(packet(), 0.0, 0.0)


class TestCollapseFlow:
    def test_identity_flow(self):
        phi = packet()
        out = collapse_flow(phi, CollapseSpec(2.0), 0.0, 0.0)
        assert np.array_equal(out.amplitudes, phi.amplitudes)

    def test_composition_additive(self):
        phi = packet()
        c = CollapseSpec(1.0)
        one = collapse_flow(collapse_flow(phi, c, 0.3, 0.1), c, -0.7, 0.25)
        two = collapse_flow(phi, c, -0.4, 0.35)
        rel = np.max(np.abs(one.amplitudes - two.amplitudes)) / np.max(
            np.abs(two.amplitudes))
        assert rel <= 1e-12

    def test_commutes_with_hit(self):
        phi = packet()
        c = CollapseSpec(0.5)
        a = gaussian_hit(collapse_flow(phi, c, 0.2, 0.1), 0.4, 1.5)
        b = collapse_flow(gaussian_hit(phi, 0.4, 1.5), c, 0.2, 0.1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-14

    def test_norm2_quadrature_oracle(self):
        phi = packet()
        out = collapse_flow(phi, CollapseSpec(1.0), 0.3, 0.1)
        # independent quadrature of e^{2(0.3)x - 2(0.1)x^2} |phi_0|^2
        x = phi.grid.x
        quad = float((np.exp(0.6 * x - 0.2 * x**2)
                      * np.abs(phi.amplitudes) ** 2).sum() * phi.grid.dx)
        assert norm2(out) == pytest.approx(quad, rel=1e-13)
        assert norm2(out) == pytest.approx(FLOW_NORM2_ORACLE, rel=1e-10)

    def test_zero_collapse_limit(self):
        phi = packet()
        out = collapse_flow(phi, CollapseSpec(1e-12), 0.0, 1.0)
        assert abs(norm2(out) - 1.0) <= 1e-10

    def test_overflow_guard(self):
        phi = packet()
        with pytest.raises(StepTooLargeError):
            collapse_flow(phi, CollapseSpec(10.0), 0.0, 1.0)  # 10*400*1 > 700
        with pytest.raises(InvalidParameterError):
            collapse_flow(phi, CollapseSpec(1.0), 0.0, -0.1)


class TestNorms:
    def test_normalize_scale_invariance(self):
        phi = packet()
        doubled = WaveFunction(phi.grid, 2.0 * phi.amplitudes)
        a = normalize(doubled)
        b = normalize(phi)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-14

    def test_inner_vs_norm2(self):
        phi = packet()
        assert inner(phi, phi).real == pytest.approx(norm2(phi), abs=1e-12)
        assert abs(inner(phi, phi).imag) < 1e-14

    def test_degenerate_normalize(self):
        g = Grid(16, -1.0, 1.0)
        with pytest.raises(DegenerateStateError):
            normalize(WaveFunction(g, np.zeros(16, dtype=complex)))

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            inner(packet(), packet(n=128))

    def test_boundary_mass(self):
        phi = packet()
        assert boundary_mass(phi) < 1e-12
        edge = make_gaussian_packet(Grid(256, -20.0, 20.0), 18.6, 0.2)
        assert boundary_mass(edge) > 0.5


def _hamiltonian(grid, kind):
    """H = 0, free, cos potential with kinetic term, or the cos potential alone."""
    if kind == "zero":
        return HamiltonianSpec.zero(grid)
    if kind == "free":
        return HamiltonianSpec.free(grid)
    return HamiltonianSpec(grid, cosine_potential(grid, 0.5), kinetic=kind == "cos")


def _random_rows(grid, rows, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, grid.n_points)) + 1j * rng.standard_normal(
        (rows, grid.n_points))


H_KINDS = ["zero", "free", "cos", "potential_only"]


class TestRowOperations:
    """The single-state functions are the row operations on a batch of one."""

    @pytest.mark.parametrize("kind", H_KINDS)
    def test_evolve_unitary_is_its_row_in_a_batch(self, kind):
        # rows of other durations (one of them 0) do not change a row's bits
        grid = Grid(64, -12.0, 12.0)
        h = _hamiltonian(grid, kind)
        amps = _random_rows(grid, 4, 1)
        tau = np.array([0.3, 0.0, 0.05, 1.0 / 32.0])
        batch = _unitary_rows(amps.copy(), h, tau, 1.0 / 64.0)
        for r in range(4):
            one = evolve_unitary(WaveFunction(grid, amps[r]), h, tau[r], max_step=1.0 / 64.0)
            assert np.array_equal(one.amplitudes, batch[r])
            step = schrodinger_step(WaveFunction(grid, amps[r]), h, tau[r])
            assert np.array_equal(step.amplitudes, _unitary_rows(amps[r:r + 1].copy(), h,
                                                                 tau[r:r + 1], None)[0])

    def test_potential_only_step_is_two_half_phases(self):
        grid = Grid(64, -12.0, 12.0)
        h = _hamiltonian(grid, "potential_only")
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        half = np.exp(-0.5j * 0.2 * h.potential)
        want = phi.amplitudes * half * half
        assert np.array_equal(schrodinger_step(phi, h, 0.2).amplitudes, want)
        full = phi.amplitudes * np.exp(-1j * 0.2 * h.potential)
        assert np.max(np.abs(want - full)) <= 1e-15

    def test_flow_hit_and_normalize_are_their_rows(self):
        grid = Grid(64, -12.0, 12.0)
        amps = _random_rows(grid, 3, 2)
        dxi = np.array([0.4, -0.2, 0.0])
        flowed = _flow_rows(amps, grid, 1.3, 0.05, dxi)
        centers = np.array([0.7, -3.0, 11.0])
        hit = _hit_rows(amps, grid, 0.8, centers)
        n2 = _norm2_rows(amps, grid.dx)
        unit = _normalize_rows(amps, n2)
        for r in range(3):
            psi = WaveFunction(grid, amps[r])
            assert np.array_equal(collapse_flow(psi, CollapseSpec(1.3), dxi[r], 0.05).amplitudes,
                                  flowed[r])
            assert np.array_equal(gaussian_hit(psi, centers[r], 0.8).amplitudes, hit[r])
            # normalize keeps norm2's vdot; the division is the same
            assert np.array_equal(normalize(psi).amplitudes,
                                  _normalize_rows(amps[r:r + 1], np.array([norm2(psi)]))[0])
            assert np.allclose(unit[r], normalize(psi).amplitudes, rtol=0, atol=1e-15)

    def test_in_place_rows_match_new_arrays(self):
        grid = Grid(32, -8.0, 8.0)
        amps = _random_rows(grid, 2, 3)
        for op, args in [(_flow_rows, (grid, 0.5, 0.1, np.array([0.3, -0.1]))),
                         (_hit_rows, (grid, 0.5, np.array([0.0, 1.0]))),
                         (_normalize_rows, (np.array([2.0, 3.0]),))]:
            want = op(amps, *args)
            got = amps.copy()
            assert op(got, *args, out=got) is got
            assert np.array_equal(got, want)

    def test_a_vanishing_row_cannot_be_normalized(self):
        grid = Grid(16, -4.0, 4.0)
        amps = np.ones((3, 16), dtype=complex)
        amps[2] = 0.0
        with pytest.raises(DegenerateStateError, match="vanishing"):
            _normalize_rows(amps, _norm2_rows(amps, grid.dx))

    def test_flow_overflow_guard_checks_every_row(self):
        grid = Grid(64, -12.0, 12.0)
        amps = np.ones((2, 64), dtype=complex)
        # the exponent peaks at x = dxi / (2 sqrt(lam) dt) with value dxi^2 / (4 dt):
        # 0 at x = 0 for row 0, 1440 at x = 6 for row 1
        with pytest.raises(StepTooLargeError):
            _flow_rows(amps, grid, 400.0, 0.1, np.array([0.0, 24.0]))
        assert np.all(np.isfinite(_flow_rows(amps, grid, 400.0, 0.1, np.array([0.0, 0.0]))))

    def test_evolve_unitary_checks_its_arguments(self):
        phi = packet(n=64, lo=-12.0, hi=12.0)
        h = _hamiltonian(phi.grid, "cos")
        with pytest.raises(InvalidParameterError):
            evolve_unitary(phi, h, 0.5, max_step=0.0)
        with pytest.raises(InvalidParameterError):
            evolve_unitary(phi, h, -0.5)
        with pytest.raises(GridMismatchError):
            evolve_unitary(phi, _hamiltonian(Grid(64, -10.0, 10.0), "cos"), 0.5)


class TestEnginePathProperties:
    @settings(max_examples=40)
    @given(n=st.sampled_from([32, 128]), kind=st.sampled_from(H_KINDS),
           seed=st.integers(0, 2**32 - 1), duration=st.floats(0.0, 2.0),
           cap=st.one_of(st.none(), st.floats(1.0 / 256.0, 0.5)))
    def test_evolve_unitary_is_unitary(self, n, kind, seed, duration, cap):
        grid = Grid(n, -16.0, 16.0)
        psi = WaveFunction(grid, _random_rows(grid, 1, seed)[0])
        out = evolve_unitary(psi, _hamiltonian(grid, kind), duration, max_step=cap)
        assert abs(norm2(out) - norm2(psi)) <= 1e-12 * norm2(psi)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.01, 2.0),
           dxi=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           dt=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))
    def test_flows_compose_additively(self, seed, lam, dxi, dt):
        grid = Grid(128, -16.0, 16.0)
        psi = WaveFunction(grid, _random_rows(grid, 1, seed)[0])
        c = CollapseSpec(lam)
        one = collapse_flow(collapse_flow(psi, c, dxi[0], dt[0]), c, dxi[1], dt[1])
        two = collapse_flow(psi, c, dxi[0] + dxi[1], dt[0] + dt[1])
        rel = np.max(np.abs(one.amplitudes - two.amplitudes)) / np.max(np.abs(two.amplitudes))
        assert rel <= 1e-12


class TestPhasorsAndInPlaceStep:
    """The cheaper phasors and the in-place split step give the old bits."""

    @settings(max_examples=60)
    @given(n=st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]),
           width=st.floats(1.0, 100.0),
           durations=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
           cap=st.floats(1.0 / 256.0, 0.5))
    def test_phasors_are_the_complex_exponentials(self, n, width, durations, cap):
        grid = Grid(n, -width / 2.0, width / 2.0)
        k2 = grid.k**2
        assert np.array_equal(k2[1:n // 2], k2[:n // 2:-1])  # mirror-even, exactly
        assert np.array_equal(grid.k2, k2)
        tau = np.array(durations)
        dt = tau / np.maximum(1, np.ceil(tau / cap - 1e-12))  # the split steps of _unitary_rows
        phase = (-0.5j * dt)[:, None]
        v = cosine_potential(grid, 0.5)
        v[::3] = 0.0  # zero entries, where the sign of a zero phase shows
        assert _phasors(dt, grid.k2, even=True).tobytes() == np.exp(phase * k2).tobytes()
        assert _phasors(dt, v).tobytes() == np.exp(phase * v).tobytes()

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    @pytest.mark.parametrize("rows", [1, 3, 64, 128])
    def test_in_place_step_is_the_scipy_step(self, n, rows):
        grid = Grid(n, -16.0, 16.0)
        h = _hamiltonian(grid, "cos")
        exp_v, exp_t = _split_phases(h, 1.0 / 64.0)
        amps = _random_rows(grid, rows, n + rows)
        want = scipy.fft.ifft(scipy.fft.fft(amps * exp_v, axis=-1) * exp_t, axis=-1) * exp_v
        _apply_split_step(amps, exp_v, exp_t)
        assert amps.tobytes() == want.tobytes()
