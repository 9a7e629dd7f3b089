"""Acceptance criteria: the binding end-to-end checks of the whole build.

Each criterion function takes a seed, runs a pinned configuration at desk
scale, and returns one aggregated TestReport whose statistic is the number
of failed subchecks (so 0.0 means pass).  The criteria cover: the exact
law identity between flash centers and reweighted increments; the norm
martingale; the scaling-limit convergence with common random numbers; the
master-equation consistency checks; the jump-count lemma; the collapse
flow continuity bound; the deterministic numerics baseline; and bytewise
reproducibility of artifacts across worker counts.
"""

import functools
import hashlib
import os
import tempfile
import time

import numpy as np
import scipy.linalg

from .config import ConfigError, RunConfig
from .diosi import DiosiParams, HybridParams, diosi_ensemble
from .grid import (
    CollapseSpec,
    Grid,
    HamiltonianSpec,
    collapse_flow,
    cosine_potential,
    evolve_unitary,
    make_gaussian_packet,
    norm2,
    schrodinger_step,
)
from .grw import GrwParams, grw_ensemble
from .master import (
    DensityMatrix,
    density_max_gap,
    diosi_decoherence_rates,
    ensemble_density,
    ensemble_density_se,
    evolve_diosi_master,
    evolve_grw_master,
    grw_decoherence_rates,
    hamiltonian_matrix,
)
from .records import reweight_ensemble
from .verify import (
    TestFunctional,
    TestReport,
    check_condition_I_bound,
    check_fdd_convergence,
    check_flash_vs_increment,
    check_kappa_lemma,
    check_norm_martingale,
)

DEFAULT_SEED = 20260810

# wall-clock budgets per criterion, seconds
BUDGET_SECONDS = {1: 120, 2: 300, 3: 900, 4: 300, 5: 60, 6: 120, 7: 60, 8: 300}


def _aggregate(name, subchecks, details, n_samples=0):
    """One report per criterion: statistic counts the failed subchecks."""
    failed = sorted(k for k, ok in subchecks.items() if not ok)
    details = dict(details)
    details["subchecks"] = {k: bool(v) for k, v in sorted(subchecks.items())}
    details["failed_subchecks"] = failed
    return TestReport(name=name, statistic=float(len(failed)), threshold=0.5,
                      n_samples=n_samples, details=details)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(seed):
        t0 = time.perf_counter()
        report = fn(seed)
        report.details["runtime_seconds"] = time.perf_counter() - t0
        return report
    return wrapper


@_timed
def criterion_1(seed):
    """Exact-law identity: flash center vs reweighted increment, one jump."""
    grid = Grid(256, -20.0, 20.0)
    phi0 = make_gaussian_packet(grid, 0.0, 1.0)
    n = 100_000
    main = check_flash_vs_increment(phi0, alpha=0.5, mu=4.0, n_jumps=1,
                                    n_samples=n, seed=seed)
    negative = check_flash_vs_increment(phi0, alpha=0.5, mu=4.0, n_jumps=1,
                                        n_samples=20_000, seed=seed + 1,
                                        hybrid_alpha=1.0)
    target_var = 1.0 + 1.0 / (2.0 * 0.5)  # sigma^2 + 1/(2 alpha) = 2
    d = main.details
    ok_var_grw = abs(d["var_first_marginal_grw"] - target_var) \
        <= 3.0 * d["var_first_marginal_grw_se"]
    ok_var_hyb = abs(d["var_first_marginal_hybrid"] - target_var) \
        <= 3.0 * d["var_first_marginal_hybrid_se"]
    subchecks = {
        "ks_passes": main.passed,
        "variance_grw_matches": ok_var_grw,
        "variance_hybrid_matches": ok_var_hyb,
        "negative_control_fails": (not negative.passed and
                                   negative.details.get("status") != "inconclusive"),
    }
    return _aggregate("exact_law_identity", subchecks,
                      {"main": main.to_dict(), "negative": negative.to_dict(),
                       "target_variance": target_var}, n_samples=n)


@_timed
def criterion_2(seed):
    """Norm martingale for diffusion and hybrid, with and without potential."""
    grid = Grid(256, -20.0, 20.0)
    phi0 = make_gaussian_packet(grid, 0.0, 1.0)
    h_free = HamiltonianSpec.free(grid)
    h_cos = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    times = (0.1, 0.5, 1.0)
    n = 10_000
    subchecks = {}
    details = {}
    combos = [
        ("diosi_v0", h_free, DiosiParams(1.0, 128, 1.0, times)),
        ("diosi_cos", h_cos, DiosiParams(1.0, 128, 1.0, times)),
        ("hybrid_v0", h_free, HybridParams(1.0, 16.0, 1.0, times)),
        ("hybrid_cos", h_cos, HybridParams(1.0, 16.0, 1.0, times)),
    ]
    for label, h, params in combos:
        rep = check_norm_martingale(phi0, h, params, n, seed)
        subchecks[label] = rep.passed
        details[label] = rep.to_dict()
    return _aggregate("norm_martingale", subchecks, details, n_samples=n)


@_timed
def criterion_3(seed):
    """Scaling-limit convergence with common random numbers."""
    grid = Grid(128, -16.0, 16.0)
    phi0 = make_gaussian_packet(grid, 0.0, 1.0)
    functional = TestFunctional("overlap_modulus", cap=1.0, reference_state=phi0)
    n = 4_000
    mu_list = (4, 16, 64, 256)
    times = (0.25, 0.5)
    subchecks = {}
    details = {"mu_list": list(mu_list), "t_list": list(times)}
    for label, h in [("v0", HamiltonianSpec.free(grid)),
                     ("cos", HamiltonianSpec(grid, cosine_potential(grid, 0.5)))]:
        rep = check_fdd_convergence(phi0, h, 1.0, mu_list, times, functional,
                                    n, seed, reference_substeps=4096)
        subchecks[label] = rep.passed
        details[label] = rep.to_dict()
    return _aggregate("scaling_limit_convergence", subchecks, details,
                      n_samples=n)


@_timed
def criterion_4(seed):
    """Master-equation closed forms, trajectory consistency, rate agreement."""
    grid = Grid(32, -12.0, 12.0)
    phi0 = make_gaussian_packet(grid, 0.0, 1.0)
    h0 = HamiltonianSpec.zero(grid)
    h_cos = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    rho0 = DensityMatrix.from_wavefunction(phi0)
    sep = grid.x[:, None] - grid.x[None, :]
    mu, alpha, lam = 2.0, 1.0, 1.0
    t, dt = 0.5, 2e-4
    n = 1_000
    subchecks = {}
    details = {}

    rho_g = evolve_grw_master(rho0, h0, mu, alpha, t, dt)
    exact_g = rho0.entries * np.exp(-mu * (1.0 - np.exp(-0.25 * alpha * sep**2)) * t)
    err_g = float(np.max(np.abs(rho_g.entries - exact_g)))
    subchecks["grw_closed_form"] = err_g <= 1e-10

    rho_d = evolve_diosi_master(rho0, h0, lam, t, dt)
    exact_d = rho0.entries * np.exp(-0.5 * lam * sep**2 * t)
    err_d = float(np.max(np.abs(rho_d.entries - exact_d)))
    subchecks["diosi_closed_form"] = err_d <= 1e-10
    details["closed_form_errors"] = {"grw": err_g, "diosi": err_d}

    rho_tv = evolve_grw_master(rho0, h_cos, mu, alpha, 1.0, dt)
    trace_err = abs(rho_tv.trace() - 1.0)
    subchecks["trace_conserved"] = trace_err < 1e-8
    details["trace_error_t1"] = trace_err

    # trajectory ensembles vs master, bounded potential; the comparison is
    # the max-norm gap against the pooled SE at the maximizing entry
    pg = GrwParams(mu=mu, alpha=alpha, t_max=t, sample_times=(t,))
    ens_g = reweight_ensemble(grw_ensemble(phi0, h_cos, pg, seed, n), t)
    ref_g = evolve_grw_master(rho0, h_cos, mu, alpha, t, dt)
    gap_g, se_g = density_max_gap(ensemble_density(ens_g),
                                  ensemble_density_se(ens_g), ref_g)
    ratio_g = gap_g / (5.0 * se_g + 1e-9)
    subchecks["grw_trajectory_consistency"] = ratio_g <= 1.0

    pd = DiosiParams(lam=lam, n_substeps_per_unit_time=512, t_max=t,
                     sample_times=(t,))
    ens_d = reweight_ensemble(
        diosi_ensemble(phi0, h_cos, pd, seed + 1, n), t)
    ref_d = evolve_diosi_master(rho0, h_cos, lam, t, dt)
    gap_d, se_d = density_max_gap(ensemble_density(ens_d),
                                  ensemble_density_se(ens_d), ref_d)
    ratio_d = gap_d / (5.0 * se_d + 1e-9)
    subchecks["diosi_trajectory_consistency"] = ratio_d <= 1.0
    details["consistency_max_ratio"] = {"grw": ratio_g, "diosi": ratio_d}
    details["consistency_max_gap"] = {"grw": gap_g, "diosi": gap_d}

    # small-separation agreement of the two decoherence rates
    alpha_small = 0.01
    z = 0.25 * alpha_small * sep**2
    mask = (z > 0) & (z <= 0.01)
    rel = np.abs(z[mask] - (1.0 - np.exp(-z[mask]))) / z[mask]
    worst_rel = float(rel.max()) if rel.size else 0.0
    subchecks["small_separation_agreement"] = worst_rel < 0.01
    details["small_separation_max_rel"] = worst_rel

    # pointwise ordering of the rates under the scaling constraint
    rates_g = grw_decoherence_rates(grid, mu, alpha)
    rates_d = diosi_decoherence_rates(grid, 0.5 * mu * alpha)
    subchecks["rate_ordering"] = bool(np.all(rates_g <= rates_d + 1e-12))

    return _aggregate("lindblad_consistency", subchecks, details, n_samples=n)


@_timed
def criterion_5(seed):
    """Jump-count lemma: uniform moment ratio and tail decay."""
    rep = check_kappa_lemma((10.0, 100.0, 1000.0), 0.0, 1.0, 100_000, seed)
    negative = check_kappa_lemma((10.0, 100.0, 1000.0), 0.0, 1.0, 20_000,
                                 seed + 1, kappa_power=2)
    subchecks = {"lemma_bounds": rep.passed,
                 "negative_control_fails": not negative.passed}
    return _aggregate("kappa_lemma", subchecks,
                      {"main": rep.to_dict(), "negative": negative.to_dict()},
                      n_samples=100_000)


@_timed
def criterion_6(seed):
    """Collapse-flow continuity bound for the Laplacian."""
    grid = Grid(512, -32.0, 32.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    rep = check_condition_I_bound(phi, (1e-1, 1e-2, 1e-3, 1e-4), 4_000, seed)
    negative = check_condition_I_bound(phi, (1e-3,), 2_000, seed + 1,
                                       noise_scale=3.0)
    subchecks = {"bound_holds": rep.passed,
                 "negative_control_fails": not negative.passed}
    return _aggregate("condition_I_bound", subchecks,
                      {"main": rep.to_dict(), "negative": negative.to_dict()},
                      n_samples=4_000)


@_timed
def criterion_7(seed):
    """Deterministic numerics baseline."""
    subchecks = {}
    details = {}

    # free Gaussian propagation, exact kinetic phase
    grid = Grid(512, -48.0, 48.0)
    sigma, k0, dt, steps = 1.0, 0.4, 0.1, 100
    phi = make_gaussian_packet(grid, 0.0, sigma, k0)
    h_free = HamiltonianSpec.free(grid)
    state = phi
    for _ in range(steps):
        state = schrodinger_step(state, h_free, dt)
    t = steps * dt
    x = grid.x
    tau = 1.0 + 1j * t / (2.0 * sigma**2)
    exact = ((2.0 * np.pi * sigma**2) ** (-0.25) / np.sqrt(tau)
             * np.exp(-((x - k0 * t) ** 2) / (4.0 * sigma**2 * tau))
             * np.exp(1j * (k0 * x - 0.5 * k0**2 * t)))
    # fix the grid-normalization of the packet for a fair L2 comparison
    exact *= np.sqrt(norm2(phi))
    l2_err = float(np.sqrt(np.sum(np.abs(state.amplitudes - exact) ** 2)
                           * grid.dx))
    subchecks["free_gaussian_l2"] = l2_err < 1e-6
    details["free_gaussian_l2_error"] = l2_err

    # unitarity drift over 1000 steps with a bounded potential
    grid2 = Grid(256, -20.0, 20.0)
    phi2 = make_gaussian_packet(grid2, 0.0, 1.0)
    h_cos = HamiltonianSpec(grid2, cosine_potential(grid2, 0.5))
    state = phi2
    for _ in range(1000):
        state = schrodinger_step(state, h_cos, 1e-3)
    drift = abs(norm2(state) - 1.0)
    subchecks["unitarity_drift"] = drift < 1e-10
    details["unitarity_drift"] = drift

    # observed splitting order against a dense matrix-exponential oracle
    grid3 = Grid(128, -16.0, 16.0)
    phi3 = make_gaussian_packet(grid3, 0.0, 1.0)
    h3 = HamiltonianSpec(grid3, cosine_potential(grid3, 0.5))
    t3 = 0.5
    u = scipy.linalg.expm(-1j * t3 * hamiltonian_matrix(h3))
    exact3 = u @ phi3.amplitudes
    errs = []
    dts = [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]
    for step in dts:
        state = evolve_unitary(phi3, h3, t3, max_step=step)
        errs.append(float(np.sqrt(
            np.sum(np.abs(state.amplitudes - exact3) ** 2) * grid3.dx)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    subchecks["splitting_order"] = slope >= 1.9
    details["splitting_errors"] = errs
    details["splitting_order"] = slope

    # collapse-flow composition is exact
    c = CollapseSpec(1.0)
    one = collapse_flow(collapse_flow(phi2, c, 0.3, 0.1), c, -0.7, 0.25)
    two = collapse_flow(phi2, c, 0.3 - 0.7, 0.1 + 0.25)
    comp = float(np.max(np.abs(one.amplitudes - two.amplitudes))
                 / np.max(np.abs(two.amplitudes)))
    subchecks["flow_composition"] = comp <= 1e-12
    details["flow_composition_rel_error"] = comp

    return _aggregate("numerics_baseline", subchecks, details)


_REPRO_CONFIG = """
model = hybrid
seed = 424242
lambda = 1.0
mu = 8
x_min = -16
x_max = 16
n_points = 128
t_max = 0.5
sample_times = 0.25, 0.5
n_trajectories = 40
"""

_REPRO_CONFIG_GRW = """
model = grw
seed = 424243
mu = 4
alpha = 1.0
x_min = -16
x_max = 16
n_points = 128
t_max = 0.5
sample_times = 0.25, 0.5
n_trajectories = 40
"""


def _sha_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@_timed
def criterion_8(seed):
    """Byte-identical artifacts across reruns and worker counts."""
    from .cli import run_simulate

    subchecks = {}
    details = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in [("hybrid", _REPRO_CONFIG), ("grw", _REPRO_CONFIG_GRW)]:
            cfg = RunConfig.from_text(text)
            hashes = {}
            for workers in (1, 2):
                out = os.path.join(tmp, f"{label}_w{workers}")
                paths = run_simulate(cfg, out, workers=workers)
                hashes[workers] = {os.path.basename(p): _sha_file(p)
                                   for p in paths}
            subchecks[f"{label}_archive_workers"] = hashes[1] == hashes[2]
            details[f"{label}_hashes"] = hashes[1]

    grid = Grid(128, -16.0, 16.0)
    phi0 = make_gaussian_packet(grid, 0.0, 1.0)
    rep_a = check_flash_vs_increment(phi0, 0.5, 4.0, 1, 2_000, seed)
    rep_b = check_flash_vs_increment(phi0, 0.5, 4.0, 1, 2_000, seed)
    subchecks["report_bytes_identical"] = rep_a.to_json() == rep_b.to_json()
    return _aggregate("reproducibility", subchecks, details)


CRITERIA = (
    (1, "exact_law_identity", criterion_1),
    (2, "norm_martingale", criterion_2),
    (3, "scaling_limit_convergence", criterion_3),
    (4, "lindblad_consistency", criterion_4),
    (5, "kappa_lemma", criterion_5),
    (6, "condition_I_bound", criterion_6),
    (7, "numerics_baseline", criterion_7),
    (8, "reproducibility", criterion_8),
)


def select_criteria(numbers=None):
    """The criteria numbered in ``numbers`` (all when empty); ConfigError on a bad number."""
    if not numbers:
        return CRITERIA
    try:
        wanted = set(int(n) for n in numbers)
    except ValueError:
        raise ConfigError(f"criteria must be integers, got {list(numbers)}") from None
    unknown = wanted - {num for num, _, _ in CRITERIA}
    if unknown:
        raise ConfigError(f"unknown criteria: {sorted(unknown)}")
    return tuple(c for c in CRITERIA if c[0] in wanted)
