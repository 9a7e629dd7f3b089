"""Verification-harness tests: reports, functionals, and the checks at
reduced sample sizes, including every negative control."""

import json

import numpy as np
import pytest

from collapsim import (
    Grid,
    HamiltonianSpec,
    WaveFunction,
    check_condition_I_bound,
    check_fdd_convergence,
    check_flash_vs_increment,
    check_kappa_lemma,
    check_norm_martingale,
    make_gaussian_packet,
    norm2,
)
from collapsim import TestFunctional as Functional
from collapsim import TestReport as Report
from collapsim import diosi, verify
from collapsim.diosi import DiosiParams, HybridParams
from collapsim.errors import GridMismatchError, InvalidParameterError
from collapsim.grid import spectral_derivative


def packet(n=256, half=20.0):
    return make_gaussian_packet(Grid(n, -half, half), 0.0, 1.0)


class TestReportType:
    def test_pass_follows_comparison(self):
        assert Report("a", 0.5, 1.0).passed
        assert not Report("b", 1.5, 1.0).passed
        assert Report("c", 0.05, 0.01, comparison=">=").passed
        assert not Report("d", 0.005, 0.01, comparison=">=").passed
        with pytest.raises(InvalidParameterError):
            Report("e", 1.0, 1.0, comparison="<")

    def test_inconclusive_never_passes(self):
        rep = Report("i", float("inf"), 0.01, comparison=">=",
                     details={"status": "inconclusive"})
        assert not rep.passed
        assert rep.to_dict()["pass"] is False

    def test_json_stable_and_numpy_safe(self):
        rep = Report("j", np.float64(0.25), 1.0, n_samples=10,
                         details={"arr": np.arange(3), "flag": np.bool_(True),
                                  "nested": {"v": np.int64(7)}})
        blob = rep.to_json()
        assert blob == Report("j", 0.25, 1.0, n_samples=10,
                                  details={"arr": [0, 1, 2], "flag": True,
                                           "nested": {"v": 7}}).to_json()
        parsed = json.loads(blob)
        assert parsed["pass"] is True
        assert parsed["details"]["arr"] == [0, 1, 2]


class TestFunctionals:
    def test_norm_cap_is_one_on_normalized(self):
        f = Functional("norm_cap", cap=1.0)
        phi = packet()
        assert f.value([phi, phi]) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_bounded_and_self_overlap(self):
        phi = packet()
        f = Functional("overlap_modulus", cap=1.0, reference_state=phi)
        assert f.value([phi]) == pytest.approx(1.0, abs=1e-10)
        other = make_gaussian_packet(phi.grid, 5.0, 1.0)
        assert 0.0 <= f.value([other]) < 0.1
        assert f.lipschitz == pytest.approx(1.0, abs=1e-8)

    def test_windowed_mean_position(self):
        f = Functional("windowed_mean_position", cap=5.0)
        centered = packet()
        assert abs(f.value([centered])) < 1e-9
        shifted = make_gaussian_packet(centered.grid, 2.0, 0.5)
        assert f.value([shifted]) == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("kind, cap", [("overlap_modulus", 1.0), ("overlap_modulus", 0.3),
                                           ("windowed_mean_position", 5.0),
                                           ("windowed_mean_position", 0.2),
                                           ("norm_cap", 1.0), ("norm_cap", 0.5)])
    def test_rows_give_the_bits_of_one_state_at_a_time(self, kind, cap):
        # (rows, T, n) snapshots of a reweighted ensemble against the per-state
        # definitions, mean_k f(phi_k), bit for bit
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec(phi.grid, 0.5 * np.cos(phi.grid.x))
        states = diosi.diosi_ensemble(phi, h, DiosiParams(1.0, 64, 0.5, (0.25, 0.375, 0.5)),
                                      5, 40).states
        f = Functional(kind, cap=cap, reference_state=phi)
        x, dx = phi.grid.x, phi.grid.dx
        want = []
        for row in states:
            terms = []
            for a in row:
                if kind == "overlap_modulus":
                    terms.append(min(cap, abs(complex(np.vdot(phi.amplitudes, a)) * dx)))
                elif kind == "windowed_mean_position":
                    v = float((x * (np.abs(a) ** 2 * dx))[np.abs(x) <= cap].sum())
                    terms.append(max(-cap, min(cap, v)))
                else:
                    terms.append(min(cap, float(np.real(np.vdot(a, a))) * dx))
            want.append(float(np.mean(terms)))
        got = f.values(states, phi.grid)
        assert got.tolist() == want
        wrapped = [WaveFunction(phi.grid, a) for a in states[7]]
        assert f.value(wrapped) == want[7]
        assert f.value([]) == 0.0

    def test_states_on_another_grid_are_rejected(self):
        phi = packet()
        other = packet(n=128)
        f = Functional("overlap_modulus", reference_state=phi)
        with pytest.raises(GridMismatchError):
            f.value([other])
        with pytest.raises(GridMismatchError):
            Functional("norm_cap").value([phi, WaveFunction(other.grid, other.amplitudes)])

    def test_requires_reference(self):
        with pytest.raises(InvalidParameterError):
            Functional("overlap_modulus", cap=1.0)
        with pytest.raises(InvalidParameterError):
            Functional("nonsense")


class TestFlashVsIncrement:
    def test_zero_jumps_vacuous_pass(self):
        rep = check_flash_vs_increment(packet(), 0.5, 4.0, 0, 100, seed=1)
        assert rep.passed
        assert rep.details["status"] == "vacuous"

    def test_passes_at_reduced_size(self):
        rep = check_flash_vs_increment(packet(), 0.5, 4.0, 1, 4000, seed=2)
        assert rep.passed
        assert rep.details["effective_sample_size"] > 100

    def test_negative_control_mismatched_alpha(self):
        rep = check_flash_vs_increment(packet(), 0.5, 4.0, 1, 8000, seed=3,
                                       hybrid_alpha=1.0)
        assert not rep.passed
        assert rep.details.get("status") != "inconclusive"

    def test_deterministic_report_bytes(self):
        a = check_flash_vs_increment(packet(), 0.5, 4.0, 1, 500, seed=4)
        b = check_flash_vs_increment(packet(), 0.5, 4.0, 1, 500, seed=4)
        assert a.to_json() == b.to_json()

    def test_inconclusive_on_tiny_ess(self):
        # a grossly over-collapsed hybrid makes the weights degenerate;
        # the small window keeps the flow inside its overflow budget.  The
        # sample itself clears the ESS floor, so only the degenerate
        # weights can make the run inconclusive
        phi = make_gaussian_packet(Grid(64, -4.0, 4.0), 0.0, 0.5)
        n = 120
        rep = check_flash_vs_increment(phi, 0.5, 4.0, 1, n, seed=5,
                                       hybrid_alpha=80.0)
        assert not rep.passed
        assert rep.details.get("status") == "inconclusive"
        ess = rep.details["effective_sample_size"]
        assert ess < verify.MIN_EFFECTIVE_SAMPLE_SIZE < n


class TestNormMartingale:
    def test_diosi_passes(self):
        phi = packet()
        p = DiosiParams(1.0, 64, 0.5, (0.1, 0.5))
        rep = check_norm_martingale(phi, HamiltonianSpec.free(phi.grid), p,
                                    4000, seed=6)
        assert rep.passed

    def test_negative_control_bias(self):
        phi = packet()
        p = DiosiParams(1.0, 64, 0.5, (0.1, 0.5))
        rep = check_norm_martingale(phi, HamiltonianSpec.free(phi.grid), p,
                                    4000, seed=6, weight_bias=0.2)
        assert not rep.passed


class TestKappaLemma:
    def test_s_equals_t_is_exactly_zero(self):
        rep = check_kappa_lemma((10.0, 100.0), 1.0, 1.0, 2000, seed=7)
        assert rep.passed
        for entry in rep.details["per_mu"].values():
            assert entry["mean"] == 0.0
            assert entry["tail"] == 0.0

    def test_tail_zero_when_poisson_tail_is_impossible(self):
        # P(kappa > 6 mu t) for mu t = 50 is below 1e-100
        rep = check_kappa_lemma((50.0,), 0.0, 1.0, 5000, seed=8)
        assert rep.details["tail_at_mu_max"] == 0.0

    def test_ratios_uniform_at_reduced_size(self):
        rep = check_kappa_lemma((10.0, 100.0, 1000.0), 0.0, 1.0, 5000, seed=9)
        assert rep.passed
        assert rep.details["spread"] < 2.0

    def test_negative_control_power(self):
        rep = check_kappa_lemma((10.0, 100.0, 1000.0), 0.0, 1.0, 3000, seed=10,
                                kappa_power=2)
        assert not rep.passed


class TestPinnedDraws:
    """Exact c1 / c5 / c6 numbers at seed 3: the draws of these checks are pinned."""

    def test_flash_vs_increment_one_jump(self):
        rep = check_flash_vs_increment(packet(), 0.5, 4.0, 1, 1000, seed=3)
        assert rep.statistic == 0.3194824934236702
        d = rep.details
        assert d["p_values"] == {"marginal_1": 0.3194824934236702}
        assert d["effective_sample_size"] == 748.9510931743291
        assert d["mean_weight"] == 0.9876341021064259
        assert d["var_first_marginal_grw"] == 1.9760273480115644
        assert d["var_first_marginal_grw_se"] == 0.08444772327370066
        assert d["var_first_marginal_hybrid"] == 1.732593448517925
        assert d["var_first_marginal_hybrid_se"] == 0.1492594274781784

    def test_flash_vs_increment_two_jumps(self):
        rep = check_flash_vs_increment(packet(), 0.5, 4.0, 2, 1000, seed=3)
        assert rep.statistic == 0.3460248144416055
        d = rep.details
        assert d["p_values"] == {"marginal_1": 0.3479112313450106,
                                 "marginal_2": 0.7979383390778507,
                                 "coordinate_sum": 0.3460248144416055}
        assert d["effective_sample_size"] == 369.83495344536124
        assert d["mean_weight"] == 0.9574456544338847
        assert d["var_first_marginal_grw"] == 1.9760273480115644
        assert d["var_first_marginal_grw_se"] == 0.08444772327370066
        assert d["var_first_marginal_hybrid"] == 1.6560291341379134
        assert d["var_first_marginal_hybrid_se"] == 0.2670561445253446

    def test_kappa_lemma_moments(self):
        rep = check_kappa_lemma((10.0, 100.0), 0.0, 1.0, 2000, seed=3)
        assert rep.statistic == 0.12992411198899478
        assert rep.details["per_mu"] == {
            "mu=10.0": {"mean": 1.4952835755667688, "se": 0.010690059681335396,
                        "normalized": 0.7476417877833844, "tail": 0.0},
            "mu=100.0": {"mean": 1.9427339072724141, "se": 0.0041620178874767185,
                         "normalized": 0.9713669536362071, "tail": 0.0}}

    def test_kappa_lemma_poisson_tails(self):
        # s = t draws the Poisson counts; small mu t makes the tails nonzero
        rep = check_kappa_lemma((0.25, 0.5), 1.0, 1.0, 2000, seed=3)
        assert rep.statistic == 20.5
        assert [e["tail"] for e in rep.details["per_mu"].values()] == [0.1335, 0.0205]

    def test_condition_I_bound_estimates(self):
        phi = packet(n=128, half=16.0)
        rep = check_condition_I_bound(phi, (1e-1, 1e-3), 2000, seed=3)
        assert rep.statistic == 0.20970076006680755
        per_time = rep.details["per_time"]
        assert per_time["t=0.1"]["estimate"] == 0.13499473475054385
        assert per_time["t=0.1"]["se"] == 0.004121196604230895
        assert per_time["t=0.001"]["estimate"] == 0.0009714563005151043
        assert per_time["t=0.001"]["se"] == 3.0054713927597684e-05
        scaled = check_condition_I_bound(phi, (1e-3,), 2000, seed=4, noise_scale=3.0)
        assert scaled.details["per_time"]["t=0.001"]["estimate"] == 0.008489513400440076


class TestConditionIBound:
    def test_zero_time_is_exact_zero(self):
        phi = packet(n=512, half=32.0)
        rep = check_condition_I_bound(phi, (0.0,), 100, seed=11)
        assert rep.details["per_time"]["t=0"]["estimate"] == 0.0

    def test_bound_and_decay(self):
        phi = packet(n=512, half=32.0)
        rep = check_condition_I_bound(phi, (1e-1, 1e-2, 1e-3, 1e-4), 1500,
                                      seed=12)
        assert rep.passed
        assert not rep.details["nyquist_flag"]

    def test_rhs_derivative_oracle(self):
        # for the unit Gaussian, ||phi'||^2 = 1/4 analytically
        phi = packet(n=512, half=32.0)
        d1 = spectral_derivative(phi, 1)
        assert norm2(d1) == pytest.approx(0.25, rel=1e-10)

    def test_negative_control_noise_scale(self):
        phi = packet(n=512, half=32.0)
        rep = check_condition_I_bound(phi, (1e-3,), 1500, seed=13,
                                      noise_scale=3.0)
        assert not rep.passed


class TestFddConvergence:
    def test_constant_functional_all_within_3se(self):
        # f == 1 reduces the comparison to the martingale means
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("norm_cap", cap=2.0)
        rep = check_fdd_convergence(phi, h, 1.0, (4, 16), (0.25, 0.5), f, 400,
                                    seed=14, reference_substeps=512)
        for entry in rep.details["per_mu"].values():
            assert entry["error"] <= 3.0 * entry["pooled_se"]

    def test_vanishing_noise_immediate_agreement(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("overlap_modulus", cap=1.0, reference_state=phi)
        # 120 > MIN_EFFECTIVE_SAMPLE_SIZE: unit weights give ESS = N
        rep = check_fdd_convergence(phi, h, 1e-12, (4, 16), (0.5,), f, 120,
                                    seed=15, reference_substeps=256)
        assert rep.passed
        first = rep.details["per_mu"]["mu=4"]
        assert first["error"] <= 3.0 * first["pooled_se"] + 1e-9
        assert first["strong_error"] <= verify.STRONG_ERROR_FLOOR

    def test_overlap_error_decreases(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("overlap_modulus", cap=1.0, reference_state=phi)
        rep = check_fdd_convergence(phi, h, 1.0, (4, 16, 64), (0.25, 0.5), f,
                                    500, seed=16, reference_substeps=1024)
        assert rep.passed
        strong = rep.details["strong_errors_by_mu"]
        assert strong[-1] < strong[0]
        assert rep.details["strong_decrease_z"] >= verify.STRONG_DECREASE_Z

    def test_negative_control_reference_lambda(self):
        # n = 2000 clears the ESS floor at both meshes (ESS 142 and 147);
        # the wrong target law must fail the closeness gate itself
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("overlap_modulus", cap=1.0, reference_state=phi)
        rep = check_fdd_convergence(phi, h, 1.0, (4, 16), (0.5,), f, 2000,
                                    seed=17, reference_substeps=512,
                                    reference_lam=4.0)
        assert not rep.passed
        assert rep.details.get("status") != "inconclusive"
        assert rep.details["ratios"]["terminal_vs_3se"] > 1.0

    def test_mu_must_divide_reference(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("norm_cap")
        with pytest.raises(InvalidParameterError):
            check_fdd_convergence(phi, h, 1.0, (3,), (0.5,), f, 10, seed=18,
                                  reference_substeps=512)

    def test_needs_two_meshes(self):
        phi = packet(n=128, half=16.0)
        h = HamiltonianSpec.free(phi.grid)
        f = Functional("norm_cap")
        with pytest.raises(InvalidParameterError):
            check_fdd_convergence(phi, h, 1.0, (4, 4), (0.5,), f, 10, seed=18,
                                  reference_substeps=512)
