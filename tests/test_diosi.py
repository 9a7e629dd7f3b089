"""Diffusion and hybrid process tests: exact flows, martingale, law identities."""

import math

import numpy as np
import pytest

from collapsim import (
    DiosiParams,
    Grid,
    HamiltonianSpec,
    HybridParams,
    diosi_ensemble,
    diosi_trajectory,
    evolve_unitary,
    hybrid_ensemble,
    hybrid_trajectory,
    make_gaussian_packet,
    norm2,
    reweight_ensemble,
)
from collapsim.errors import InvalidParameterError, ScheduleMismatchError
from collapsim.grid import CollapseSpec, collapse_flow, cosine_potential, normalize
from collapsim.rng import ROLE_WIENER
from collapsim.stats import mean_se
from reference import stream, waits, wiener_cells


def packet(n=256, half=20.0):
    return make_gaussian_packet(Grid(n, -half, half), 0.0, 1.0)


class TestDiosiTrajectory:
    def test_h0_equals_pure_collapse_solution(self):
        phi = packet()
        h0 = HamiltonianSpec.zero(phi.grid)
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=32, t_max=1.0,
                        sample_times=(1.0,))
        rec = diosi_trajectory(phi, h0, p, seed=31)
        xi = float(wiener_cells(31, 0, 32, 0, 32).sum())
        exact = np.exp(phi.grid.x * xi - phi.grid.x**2) * phi.amplitudes
        w = float(np.sum(np.abs(exact) ** 2) * phi.grid.dx)
        assert rec.weights[0] == pytest.approx(w, rel=1e-12)
        got = rec.state_at(1.0).amplitudes
        want = exact / math.sqrt(w)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_vanishing_noise_is_pure_schrodinger(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        p = DiosiParams(lam=1e-12, n_substeps_per_unit_time=64, t_max=1.0,
                        sample_times=(1.0,))
        rec = diosi_trajectory(phi, h, p, seed=32)
        pure = evolve_unitary(phi, h, 1.0)
        err = np.sqrt(np.sum(np.abs(rec.state_at(1.0).amplitudes
                                    - pure.amplitudes) ** 2) * phi.grid.dx)
        assert err < 1e-5
        assert rec.weights[0] == pytest.approx(1.0, abs=1e-6)

    def test_mean_weight_is_one(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=64, t_max=1.0,
                        sample_times=(0.1, 0.5, 1.0))
        recs = diosi_ensemble(phi, h, p, 33, 4000, store_states=False)
        w = np.stack([r.weights for r in recs])
        for j in range(3):
            mean = w[:, j].mean()
            se = w[:, j].std(ddof=1) / math.sqrt(len(recs))
            assert abs(mean - 1.0) <= 3.0 * se

    def test_batched_matches_single(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec(phi.grid, cosine_potential(phi.grid, 0.5))
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=32, t_max=0.5,
                        sample_times=(0.25, 0.5))
        batch = diosi_ensemble(phi, h, p, 34, 3)
        for i in range(3):
            single = diosi_trajectory(phi, h, p, 34, index=i)
            assert np.array_equal(single.weights, batch[i].weights)
            for t in p.sample_times:
                assert np.array_equal(single.state_at(t).amplitudes,
                                      batch[i].state_at(t).amplitudes)

    def test_sample_time_snapping_collision(self):
        with pytest.raises(InvalidParameterError):
            p = DiosiParams(lam=1.0, n_substeps_per_unit_time=4, t_max=1.0,
                            sample_times=(0.5, 0.6))
            diosi_trajectory(packet(), HamiltonianSpec.zero(packet().grid), p, 1)

    def test_sample_times_hold_the_snapped_mesh_times(self):
        # 0.1 at R = 128 is taken at step 13: the record says 13/128, not 0.1
        p = DiosiParams(1.0, 128, 1.0, (0.1,))
        assert p.sample_times == (13 / 128,)
        phi = packet()
        rec = diosi_ensemble(phi, HamiltonianSpec.free(phi.grid), p, 3, 2)[0]
        assert rec.times == (0.1015625,)
        assert rec.state_at(0.1015625) is rec.states[0]
        with pytest.raises(ScheduleMismatchError):
            rec.state_at(0.1)
        assert DiosiParams(1.0, 4, 1.0, (0.0, 0.5, 1.0)).sample_times == (0.0, 0.5, 1.0)

    def test_sample_time_snapped_past_t_max_raises(self):
        # 0.4 at R = 512 snaps to 205/512 > 0.4
        with pytest.raises(InvalidParameterError):
            DiosiParams(1.0, 512, 0.4, (0.4,))
        assert DiosiParams(1.0, 512, 0.5, (0.4,)).sample_times == (205 / 512,)

    def test_collapse_continuity_at_zero(self):
        # E ||(flow(0,t) - 1) phi||^2 = int 2 (1 - e^{-lam t x^2 / 2}) |phi|^2
        phi = packet()
        lam = 1.0
        x = phi.grid.x
        dens = np.abs(phi.amplitudes) ** 2 * phi.grid.dx
        estimates = []
        for j, t in enumerate((1e-1, 1e-2, 1e-3)):
            rng = stream(35, j, ROLE_WIENER)
            xi = rng.standard_normal(2000) * math.sqrt(t)
            diffs = np.exp(np.multiply.outer(xi, math.sqrt(lam) * x)
                           - lam * t * x**2) - 1.0
            mc = float(((diffs**2) * dens[None, :]).sum(axis=1).mean())
            analytic = float((2.0 * (1.0 - np.exp(-0.5 * lam * t * x**2))
                              * dens).sum())
            assert mc == pytest.approx(analytic, rel=0.15)
            estimates.append(mc)
        assert estimates[2] < estimates[1] < estimates[0]
        assert estimates[2] < 0.05 * estimates[0]


class TestHybridTrajectory:
    def test_jump_times_span_several_wait_blocks(self):
        # about 400 jumps by t = 1 take the waits of blocks 0 and 1
        # (256 waits each)
        phi = packet(64, 12.0)
        mu = 400.0
        p = HybridParams(1.0, mu, 1.0, (1.0,))
        recs = hybrid_ensemble(phi, HamiltonianSpec.zero(phi.grid), p, 5, 3,
                               store_states=False)
        for i, rec in enumerate(recs):
            k = len(rec.flashes)
            assert 256 < k < 512
            times = np.cumsum(waits(5, i, k + 1) * (1.0 / mu))
            assert np.array_equal([f.time for f in rec.flashes], times[:k])
            assert times[k] > 1.0

    def test_deterministic_times_h0_is_hit_product(self):
        # with X_k = 1 and H = 0 the state is the normalized product of
        # Gaussian hits centered at the rescaled increments
        phi = packet()
        h0 = HamiltonianSpec.zero(phi.grid)
        lam, mu = 1.0, 4.0
        p = HybridParams(lam=lam, mu=mu, t_max=1.0, sample_times=(1.0,),
                         deterministic_times=True)
        rec = hybrid_trajectory(phi, h0, p, seed=41)
        assert len(rec.flashes) == 4
        alpha = p.alpha
        amps = phi.amplitudes.copy()
        for fl in rec.flashes:
            amps = amps * np.exp(-0.5 * alpha * (phi.grid.x - fl.center) ** 2)
        expected = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)
                                          * phi.grid.dx))
        got = rec.state_at(1.0).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_increment_variance(self):
        # Var(Z_k) = mu / (4 lam) = 1 / (2 alpha) under the reference measure
        lam, mu = 1.0, 16.0
        phi = packet()
        h0 = HamiltonianSpec.zero(phi.grid)
        p = HybridParams(lam=lam, mu=mu, t_max=1.0, sample_times=(1.0,),
                         deterministic_times=True)
        zs = []
        for i in range(3000):
            rec = hybrid_trajectory(phi, h0, p, seed=42, index=i,
                                    store_states=False)
            zs.extend(f.center for f in rec.flashes)
        zs = np.asarray(zs)
        target = mu / (4.0 * lam)
        se = target * math.sqrt(2.0 / (zs.size - 1))
        assert abs(zs.var(ddof=1) - target) <= 3.0 * se

    def test_manual_reconstruction_free_hamiltonian(self):
        # rebuild the snapshot by composing the same factors by hand
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        lam, mu = 1.0, 8.0
        t = 0.7
        p = HybridParams(lam=lam, mu=mu, t_max=t, sample_times=(t,))
        rec = hybrid_trajectory(phi, h, p, seed=44)
        xs = waits(44, 0, len(rec.flashes) + 1)
        cells = wiener_cells(44, 0, mu, 0, len(rec.flashes))
        state = phi
        t_k, k = 0.0, 0
        c = CollapseSpec(lam)
        while t_k + xs[k] / mu <= t:
            state = evolve_unitary(state, h, xs[k] / mu)
            state = collapse_flow(state, c, cells[k], 1.0 / mu)
            t_k += xs[k] / mu
            k += 1
        state = normalize(evolve_unitary(state, h, t - t_k))
        assert np.max(np.abs(state.amplitudes
                             - rec.state_at(t).amplitudes)) <= 1e-12
        assert len(rec.flashes) == k

    def test_weight_equals_norm2_at_flash(self):
        phi = packet()
        h0 = HamiltonianSpec.zero(phi.grid)
        p = HybridParams(lam=1.0, mu=4.0, t_max=1.0, sample_times=(1.0,),
                         deterministic_times=True)
        rec = hybrid_trajectory(phi, h0, p, seed=45)
        assert rec.weights[-1] == pytest.approx(
            rec.flashes[-1].pre_collapse_norm2, rel=1e-12)

    def test_common_random_numbers_share_path(self):
        # the same fine path drives both resolutions: the mu=4 increment
        # over [0, 1/4] equals the sum of the four mu=16 increments
        phi = packet()
        h0 = HamiltonianSpec.zero(phi.grid)
        recs = {}
        for mu in (4.0, 16.0):
            p = HybridParams(lam=1.0, mu=mu, t_max=0.25, sample_times=(0.25,),
                             deterministic_times=True, wiener_resolution=64.0)
            recs[mu] = hybrid_trajectory(phi, h0, p, seed=46)
        z4 = recs[4.0].flashes[0].center          # (mu/2 sqrt(lam)) dxi
        z16 = [f.center for f in recs[16.0].flashes]
        # undo the mu-dependent rescaling to compare raw increments
        assert z4 * 2.0 / 4.0 == pytest.approx(
            sum(z * 2.0 / 16.0 for z in z16), rel=1e-12)

    @pytest.mark.parametrize("resolution", [0.0, -8.0, 12.0, 4.0, math.nan, math.inf])
    def test_wiener_resolution_must_be_a_multiple_of_mu(self, resolution):
        with pytest.raises(InvalidParameterError, match="resolution"):
            HybridParams(lam=1.0, mu=8.0, t_max=0.5, wiener_resolution=resolution)
        assert HybridParams(lam=1.0, mu=8.0, t_max=0.5, wiener_resolution=24.0)

    def test_seed_determinism(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec(phi.grid, cosine_potential(phi.grid, 0.5))
        p = HybridParams(lam=1.0, mu=8.0, t_max=0.5, sample_times=(0.5,))
        a = hybrid_trajectory(phi, h, p, seed=47)
        b = hybrid_trajectory(phi, h, p, seed=47)
        assert a.flashes == b.flashes
        assert np.array_equal(a.state_at(0.5).amplitudes,
                              b.state_at(0.5).amplitudes)


class TestReweighting:
    def test_constant_functional_recovers_unit_mass(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=64, t_max=0.5,
                        sample_times=(0.5,))
        recs = diosi_ensemble(phi, h, p, 51, 2000)
        ens = reweight_ensemble(recs, 0.5)
        mean, se = mean_se(ens.weights)
        assert abs(mean - 1.0) <= 3.0 * se
        assert mean == pytest.approx(ens.mean_weight(), rel=1e-12)

    def test_vanishing_noise_weights_are_one(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        p = DiosiParams(lam=1e-12, n_substeps_per_unit_time=32, t_max=0.5,
                        sample_times=(0.5,))
        recs = diosi_ensemble(phi, h, p, 52, 50)
        ens = reweight_ensemble(recs, 0.5)
        assert np.all(np.abs(ens.weights - 1.0) <= 1e-6)

    def test_missing_snapshot_raises(self):
        phi = packet()
        h = HamiltonianSpec.free(phi.grid)
        p = DiosiParams(lam=1.0, n_substeps_per_unit_time=32, t_max=0.5,
                        sample_times=(0.5,))
        recs = diosi_ensemble(phi, h, p, 53, 3)
        with pytest.raises(ScheduleMismatchError):
            reweight_ensemble(recs, 0.25)

    def test_hybrid_ensemble_indices(self):
        phi = packet(n=128, half=16.0)
        h0 = HamiltonianSpec.zero(phi.grid)
        p = HybridParams(lam=1.0, mu=4.0, t_max=0.5, sample_times=(0.5,))
        recs = hybrid_ensemble(phi, h0, p, 54, 5)
        assert [r.index for r in recs] == list(range(5))
        direct = hybrid_trajectory(phi, h0, p, 54, index=3)
        assert np.array_equal(direct.weights, recs[3].weights)
