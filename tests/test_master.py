"""Master-equation tests: closed forms, conservation laws, ensemble consistency."""

import numpy as np
import pytest

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
from collapsim.grid import cosine_potential
from collapsim.master import (
    density_max_gap,
    diosi_decoherence_rates,
    ensemble_density_se,
    grw_decoherence_rates,
    hamiltonian_matrix,
)

GRID = Grid(32, -12.0, 12.0)
PHI = make_gaussian_packet(GRID, 0.0, 1.0)
RHO0 = DensityMatrix.from_wavefunction(PHI)
SEP = GRID.x[:, None] - GRID.x[None, :]


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
        assert RHO0.min_eigenvalue() >= -1e-12

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
        ens = WeightedEnsemble(time=0.0, states=(PHI,), weights=np.ones(1))
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
