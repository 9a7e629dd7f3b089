"""Master-equation tests: closed forms, conservation laws, ensemble consistency."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import (
    DensityMatrix,
    DiosiParams,
    Grid,
    GrwParams,
    HamiltonianSpec,
    diosi_ensemble,
    ensemble_density,
    evolve_diosi_master,
    evolve_grw_master,
    grw_ensemble,
    make_gaussian_packet,
    reweight_ensemble,
)
from collapsim.errors import InvalidParameterError, StepTooLargeError
from collapsim.grid import cosine_potential, hamiltonian_matrix, kinetic_matrix
from collapsim import master
from collapsim.master import (
    HERMITIAN_RTOL,
    MAX_RK4_STEPS,
    _rhs,
    density_max_gap,
    diosi_decoherence_rates,
    ensemble_density_se,
    grw_decoherence_rates,
)

GRID = Grid(32, -12.0, 12.0)
PHI = make_gaussian_packet(GRID, 0.0, 1.0)
RHO0 = DensityMatrix.from_wavefunction(PHI)
SEP = GRID.x[:, None] - GRID.x[None, :]


def min_eigenvalue(rho):
    """The smallest eigenvalue of rho's Hermitian part, as an operator (times dx)."""
    sym = 0.5 * (rho.entries + rho.entries.conj().T)
    return float(np.linalg.eigvalsh(sym)[0]) * rho.grid.dx


class TestClosedForms:
    def test_grw_h0_closed_form(self):
        h0 = HamiltonianSpec.zero(GRID)
        mu, alpha, t = 2.0, 1.0, 0.5
        rho = evolve_grw_master(RHO0, h0, mu, alpha, t, 2e-4)
        exact = RHO0.entries * np.exp(
            -mu * (1.0 - np.exp(-0.25 * alpha * SEP**2)) * t)
        assert np.max(np.abs(rho.entries - exact)) <= 1e-10

    def test_diosi_h0_closed_form(self):
        h0 = HamiltonianSpec.zero(GRID)
        lam, t = 1.0, 0.5
        rho = evolve_diosi_master(RHO0, h0, lam, t, 2e-4)
        exact = RHO0.entries * np.exp(-0.5 * lam * SEP**2 * t)
        assert np.max(np.abs(rho.entries - exact)) <= 1e-10

    def test_diagonal_invariance_h0(self):
        h0 = HamiltonianSpec.zero(GRID)
        rho = evolve_grw_master(RHO0, h0, 3.0, 2.0, 1.0, 2e-4)
        assert np.max(np.abs(np.diag(rho.entries) - np.diag(RHO0.entries))) \
            <= 1e-12

    def test_trace_conserved_with_potential(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        rho = evolve_grw_master(RHO0, h, 2.0, 1.0, 1.0, 2e-4)
        assert abs(rho.trace() - 1.0) < 1e-8
        assert rho.hermiticity_defect() <= 1e-10

    def test_step_halving_guard(self):
        h0 = HamiltonianSpec.zero(GRID)
        with pytest.raises(StepTooLargeError):
            evolve_diosi_master(RHO0, h0, 1.0, 0.5, 0.02)


class TestDensityMatrix:
    def test_pure_state_density(self):
        assert RHO0.trace() == pytest.approx(1.0, abs=1e-12)
        assert RHO0.hermiticity_defect() == 0.0
        assert min_eigenvalue(RHO0) >= -1e-12

    def test_grid_cap(self):
        big = Grid(256, -12.0, 12.0)
        with pytest.raises(InvalidParameterError):
            DensityMatrix(big, np.zeros((256, 256), dtype=complex))

    def test_hamiltonian_matrix_hermitian_and_consistent(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        mat = hamiltonian_matrix(h)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        # matches the split-step generator: H phi from a tiny split step
        from collapsim import schrodinger_step
        dt = 1e-6
        stepped = schrodinger_step(PHI, h, dt).amplitudes
        deriv = (stepped - PHI.amplitudes) / dt
        assert np.max(np.abs(deriv - (-1j) * (mat @ PHI.amplitudes))) < 1e-4


class TestEnsembleConsistency:
    def test_single_pure_state(self):
        from collapsim.records import WeightedEnsemble
        ens = WeightedEnsemble(time=0.0, grid=GRID, amplitudes=PHI.amplitudes[None, :],
                               weights=np.ones(1))
        rho = ensemble_density(ens)
        assert np.max(np.abs(rho.entries - RHO0.entries)) <= 1e-14
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_grw_ensemble_matches_master(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        t = 0.4
        p = GrwParams(mu=2.0, alpha=1.0, t_max=t, sample_times=(t,))
        ens = reweight_ensemble(grw_ensemble(PHI, h, p, 61, 400), t)
        ref = evolve_grw_master(RHO0, h, 2.0, 1.0, t, 2e-4)
        gap, se = density_max_gap(ensemble_density(ens),
                                  ensemble_density_se(ens), ref)
        assert gap <= 5.0 * se

    def test_diosi_ensemble_matches_master(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=512, t_max=0.5,
                        sample_times=(0.4,))
        t = p.sample_times[0]  # 0.4 snapped to the mesh: 205/512
        ens = reweight_ensemble(diosi_ensemble(PHI, h, p, 62, 400), t)
        ref = evolve_diosi_master(RHO0, h, 1.0, t, 2e-4)
        gap, se = density_max_gap(ensemble_density(ens),
                                  ensemble_density_se(ens), ref)
        assert gap <= 5.0 * se


class TestRateStructure:
    def test_decoherence_rate_ordering(self):
        # jump-model rate <= diffusion rate pointwise when mu alpha / 2 = lam
        for mu, alpha in ((2.0, 1.0), (16.0, 0.125), (100.0, 0.03)):
            lam = 0.5 * mu * alpha
            assert np.all(grw_decoherence_rates(GRID, mu, alpha)
                          <= diosi_decoherence_rates(GRID, lam) + 1e-12)

    def test_small_separation_agreement(self):
        alpha = 0.01
        z = 0.25 * alpha * SEP**2
        mask = (z > 0) & (z <= 0.01)
        rel = np.abs(z[mask] - (1.0 - np.exp(-z[mask]))) / z[mask]
        assert rel.max() < 0.01


def _hamiltonian(grid, kind):
    if kind == "zero":
        return HamiltonianSpec.zero(grid)
    if kind == "free":
        return HamiltonianSpec.free(grid)
    v = cosine_potential(grid, 0.5)
    return HamiltonianSpec(grid, v, kinetic=kind == "cos")


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class TestOneGemmRhs:
    """The packed real right-hand side against the complex Lindblad generator."""

    @settings(max_examples=40)
    @given(n=st.sampled_from([8, 32, 128]),
           kind=st.sampled_from(["zero", "free", "cos", "potential_only"]),
           mu=st.floats(0.1, 50.0), alpha=st.floats(0.01, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_two_gemm_oracle(self, n, kind, mu, alpha, seed):
        grid = Grid(n, -12.0, 12.0)
        h = _hamiltonian(grid, kind)
        rates = grw_decoherence_rates(grid, mu, alpha)
        r = _random_hermitian(n, seed)
        h_mat = hamiltonian_matrix(h)
        oracle = -1j * (h_mat @ r - r @ h_mat) - rates * r
        packed = r.real + r.imag
        got = master._unpack(_rhs(h, rates)(packed, np.empty_like(packed)))
        scale = np.max(np.abs(h_mat @ r)) + np.max(np.abs(rates * r))
        assert np.max(np.abs(got - oracle)) <= 1e-12 * scale

    def test_kinetic_matrix_real_symmetric_and_spectral(self):
        for grid in (Grid(8, -4.0, 4.0), GRID, Grid(128, -16.0, 16.0)):
            t_mat = kinetic_matrix(grid)
            assert t_mat.dtype == np.float64
            assert np.array_equal(t_mat, t_mat.T)
            n = grid.n_points
            old = np.fft.ifft((0.5 * grid.k**2)[:, None]
                              * np.fft.fft(np.eye(n, dtype=complex), axis=0), axis=0)
            assert np.max(np.abs(t_mat - old)) <= 1e-14 * np.max(np.abs(old))
            h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
            mat = hamiltonian_matrix(h)
            assert mat.dtype == np.complex128
            assert np.array_equal(mat, t_mat + np.diag(h.potential))

    @pytest.mark.parametrize("kind", ["zero", "free", "cos", "potential_only"])
    def test_outputs_exactly_hermitian(self, kind):
        h = _hamiltonian(GRID, kind)
        assert evolve_grw_master(RHO0, h, 2.0, 1.0, 0.3, 1e-3).hermiticity_defect() == 0.0
        assert evolve_diosi_master(RHO0, h, 1.0, 0.3, 1e-3).hermiticity_defect() == 0.0

    def test_non_hermitian_rho0_raises(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        bad = RHO0.entries.copy()
        bad[3, 5] += 1e-6
        with pytest.raises(InvalidParameterError):
            evolve_grw_master(DensityMatrix(GRID, bad), h, 2.0, 1.0, 0.1, 1e-3)
        with pytest.raises(InvalidParameterError):
            evolve_diosi_master(DensityMatrix(GRID, bad), h, 1.0, 0.0, 1e-3)
        bad = RHO0.entries.copy()
        bad[2, 2] = np.nan
        with pytest.raises(InvalidParameterError):
            evolve_diosi_master(DensityMatrix(GRID, bad), h, 1.0, 0.1, 1e-3)

    def test_rho0_within_tolerance_is_symmetrized(self):
        h = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
        near = RHO0.entries.copy()
        near[3, 5] += 0.5 * HERMITIAN_RTOL * np.max(np.abs(near))
        rho = evolve_grw_master(DensityMatrix(GRID, near), h, 2.0, 1.0, 0.1, 1e-3)
        assert rho.hermiticity_defect() == 0.0
        ref = evolve_grw_master(RHO0, h, 2.0, 1.0, 0.1, 1e-3)
        assert np.max(np.abs(rho.entries - ref.entries)) <= 1e-12


class TestNonFiniteInputs:
    H = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_grw_rates_parameters(self, bad):
        with pytest.raises(InvalidParameterError):
            evolve_grw_master(RHO0, self.H, bad, 1.0, 0.1, 1e-3)
        with pytest.raises(InvalidParameterError):
            evolve_grw_master(RHO0, self.H, 2.0, bad, 0.1, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_diosi_lam(self, bad):
        with pytest.raises(InvalidParameterError):
            evolve_diosi_master(RHO0, self.H, bad, 0.1, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_time(self, bad):
        with pytest.raises(InvalidParameterError):
            evolve_grw_master(RHO0, self.H, 2.0, 1.0, bad, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
    def test_step(self, bad):
        with pytest.raises(InvalidParameterError):
            evolve_diosi_master(RHO0, self.H, 1.0, 0.1, bad)

    def test_step_halving_gate_fails_closed_on_nan(self):
        # lam dt so large that RK4 overflows: both runs end in inf/nan
        h0 = HamiltonianSpec.zero(GRID)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepTooLargeError):
            evolve_diosi_master(RHO0, h0, 1e100, 0.5, 0.5)


class TestStepCap:
    H = HamiltonianSpec.free(GRID)

    def test_too_many_steps_raise_before_any_step(self):
        with mock.patch.object(master, "_rk4", side_effect=AssertionError("stepped")):
            with pytest.raises(InvalidParameterError, match="cap"):
                evolve_grw_master(RHO0, self.H, 2.0, 1.0, 0.5, 1e-12)
            with pytest.raises(InvalidParameterError, match="cap"):
                evolve_diosi_master(RHO0, self.H, 1.0, 1.0, 1.0 / (MAX_RK4_STEPS + 1))
            with pytest.raises(InvalidParameterError, match="cap"):
                evolve_diosi_master(RHO0, self.H, 1.0, 1e300, 1e-300)

    def test_the_cap_itself_is_allowed(self):
        calls = []

        def fake_rk4(rho, rhs, t, n_steps):
            calls.append(n_steps)
            return rho

        with mock.patch.object(master, "_rk4", fake_rk4):
            evolve_grw_master(RHO0, self.H, 2.0, 1.0, 1.0, 1.0 / MAX_RK4_STEPS)
        assert calls == [MAX_RK4_STEPS, 2 * MAX_RK4_STEPS]
