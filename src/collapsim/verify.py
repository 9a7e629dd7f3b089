"""Statistical verification harness.

Every quantitative identity of the collapse-model construction becomes a
seeded, reproducible Monte Carlo check returning a TestReport: the
flash/increment law equality, the norm martingale, the scaling-limit
convergence, the jump-count lemma bounds, and the Laplacian continuity
bound for the collapse flow.  Each distributional check documents a
negative-control hook that must make it fail when fed mismatched
parameters, guarding against vacuously passing statistics.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import rng as rngmod
from .diosi import HybridParams, _in_blocks, _trotter_product, diosi_ensemble, hybrid_ensemble
from .errors import GridMismatchError, InvalidParameterError
from .grid import WaveFunction, norm2, nyquist_mass_fraction
from .grw import _flash_draws, _hit_factor
from .stats import effective_sample_size, ks_2samp, mean_se
from . import grid as gridmod

MIN_EFFECTIVE_SAMPLE_SIZE = 100.0
# one-sided 1% normal quantile for the strong-error decrease in
# check_fdd_convergence, and the roundoff floor below which a strong error
# counts as exact agreement
STRONG_DECREASE_Z = 2.33
STRONG_ERROR_FLOOR = 1e-9


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


@dataclass(eq=False)
class TestReport:
    """Outcome of one statistical check; serializable and reproducible.

    ``passed`` is derived from ``statistic <comparison> threshold``, with one
    rule above it: an inconclusive run never passes.  A check that lacks the
    effective sample size to decide sets details["status"] = "inconclusive"
    (and an infinite statistic); ``passed`` is then False whatever the
    comparison, and the status tells it apart from an honest failure.
    """

    name: str
    statistic: float
    threshold: float
    comparison: str = "<="
    n_samples: int = 0
    standard_error: float = None
    details: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.comparison == "<=":
            self.passed = bool(self.statistic <= self.threshold)
        elif self.comparison == ">=":
            self.passed = bool(self.statistic >= self.threshold)
        else:
            raise InvalidParameterError(f"unknown comparison {self.comparison!r}")
        if self.details.get("status") == "inconclusive":
            self.passed = False

    def to_dict(self):
        return {
            "name": self.name,
            "statistic": _sanitize(self.statistic),
            "threshold": _sanitize(self.threshold),
            "comparison": self.comparison,
            "n_samples": int(self.n_samples),
            "standard_error": _sanitize(self.standard_error),
            "pass": self.passed,
            "details": _sanitize(self.details),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ": "))


@dataclass(frozen=True, eq=False)
class TestFunctional:
    """Bounded continuous functional on tuples of normalized states.

    kinds:
      overlap_modulus        mean_k min(cap, |<ref, phi_k>|)
      windowed_mean_position mean_k of the mean position restricted to |x| <= cap
      norm_cap               mean_k min(cap, ||phi_k||^2); f == 1 on normalized
                             states when cap >= 1

    ``values`` evaluates it on the rows of a (rows, T, n) array of
    snapshots at once; ``value`` is its batch of one.
    """

    kind: str
    cap: float = 1.0
    reference_state: WaveFunction = None

    def __post_init__(self):
        if self.kind not in ("overlap_modulus", "windowed_mean_position", "norm_cap"):
            raise InvalidParameterError(f"unknown functional kind {self.kind!r}")
        if self.cap <= 0:
            raise InvalidParameterError("cap must be positive")
        if self.kind == "overlap_modulus" and self.reference_state is None:
            raise InvalidParameterError("overlap_modulus needs a reference state")

    @property
    def lipschitz(self):
        # per-argument constants on the unit sphere
        if self.kind == "overlap_modulus":
            return math.sqrt(norm2(self.reference_state))
        return 2.0 * self.cap

    def values(self, amps, grid):
        """f of each row of (rows, T, n) snapshots on grid: a (rows,) array.

        Each state's term has the bits of the same state taken alone: the
        products <a, b> are np.vecdot, the conjugated dot product of inner
        and norm2 (np.vdot); |z| is np.hypot, as Python's abs of a complex
        (np.abs of a complex array can differ in the last bit); and the
        windowed sum runs over a C-contiguous copy, as over a 1-D array.
        """
        if self.kind == "overlap_modulus":
            ref = self.reference_state
            if ref.grid != grid:
                raise GridMismatchError("states and reference state live on different grids")
            z = np.vecdot(ref.amplitudes, amps) * grid.dx
            terms = np.minimum(self.cap, np.hypot(z.real, z.imag))
        elif self.kind == "windowed_mean_position":
            d = np.abs(amps) ** 2 * grid.dx
            inside = np.ascontiguousarray((grid.x * d)[..., np.abs(grid.x) <= self.cap])
            terms = np.clip(inside.sum(axis=-1), -self.cap, self.cap)
        else:
            terms = np.minimum(self.cap, np.vecdot(amps, amps).real * grid.dx)
        return terms.mean(axis=-1)

    def value(self, states):
        """f of a sequence of normalized states (0 when empty): values on a batch of one."""
        if not states:
            return 0.0
        if any(s.grid != states[0].grid for s in states):
            raise GridMismatchError("states live on different grids")
        return float(self.values(np.array([[s.amplitudes for s in states]]), states[0].grid)[0])


def _variance_with_se(z, w=None):
    """Sample variance and its standard error; delta method when weighted."""
    z = np.asarray(z, dtype=float)
    n = z.size
    if w is None:
        m = z.mean()
        var = float(((z - m) ** 2).sum() / (n - 1))
        se = float(np.std((z - m) ** 2, ddof=1) / math.sqrt(n))
        return var, se
    w = np.asarray(w, dtype=float)
    m1 = float((w * z).mean())
    m2 = float((w * z * z).mean())
    var = m2 - m1 * m1
    g = w * z * z - 2.0 * m1 * w * z
    se = float(np.std(g, ddof=1) / math.sqrt(n))
    return var, se


def check_flash_vs_increment(phi0, alpha, mu, n_jumps, n_samples, seed,
                             hybrid_alpha=None):
    """Law equality of jump-process flash centers and reweighted increments.

    With H = 0 and deterministic waiting times, draws (Y_1..Y_n) through
    the jump-process sampler and (Z_1..Z_n, w) through hybrid trajectories
    reweighted by the raw squared norm, then runs a weighted two-sample KS
    test on every marginal and on the coordinate sum, Bonferroni-corrected
    at the 1% level.  An effective sample size below 100 on the weighted
    side is reported as inconclusive rather than as a failure.

    Negative control: pass ``hybrid_alpha`` != alpha; the test must fail.
    """
    if n_jumps < 0:
        raise InvalidParameterError("n_jumps must be nonnegative")
    grid = phi0.grid
    alpha_h = alpha if hybrid_alpha is None else hybrid_alpha
    lam = 0.5 * mu * alpha_h
    h0 = gridmod.HamiltonianSpec.zero(grid)
    report_details = {
        "alpha": alpha, "hybrid_alpha": alpha_h, "mu": mu,
        "n_jumps": n_jumps,
    }
    if n_jumps == 0:
        return TestReport(
            name="flash_vs_increment", statistic=0.0, threshold=1.0,
            n_samples=n_samples, details={**report_details, "status": "vacuous"})

    uniforms, normals = _flash_draws(seed, range(n_samples), n_jumps)

    def grw_block(lo, hi):  # n_jumps hits per row, H = 0
        hit, centers, _ = _hit_factor(grid, alpha, uniforms[lo:hi], normals[lo:hi])
        _trotter_product(phi0, h0, hit, np.full((hi - lo, 1), n_jumps), 0.0,
                         store_states=False)
        return centers

    ys = np.concatenate(_in_blocks(n_samples, grid.n_points, grw_block))

    p_hyb = HybridParams(
        lam=lam, mu=mu, t_max=n_jumps / mu, sample_times=(n_jumps / mu,),
        deterministic_times=True)
    batch = hybrid_ensemble(phi0, h0, p_hyb, seed, n_samples, store_states=False)
    zs = batch.flash_centers.reshape(n_samples, -1)[:, :n_jumps]  # X_k = 1: same count each row
    ws = batch.weights[:, -1]

    ess = effective_sample_size(ws)
    report_details["effective_sample_size"] = ess
    report_details["mean_weight"] = float(ws.mean())
    levels = n_jumps + (1 if n_jumps > 1 else 0)
    alpha_level = 0.01 / levels
    if ess < MIN_EFFECTIVE_SAMPLE_SIZE:
        report_details["status"] = "inconclusive"
        return TestReport(
            name="flash_vs_increment", statistic=float("inf"), threshold=alpha_level,
            comparison=">=", n_samples=n_samples, details=report_details)

    pvals = {}
    for j in range(n_jumps):
        _, p, _, _ = ks_2samp(ys[:, j], zs[:, j], None, ws)
        pvals[f"marginal_{j + 1}"] = p
    if n_jumps > 1:
        _, p, _, _ = ks_2samp(ys.sum(axis=1), zs.sum(axis=1), None, ws)
        pvals["coordinate_sum"] = p
    var_y, var_y_se = _variance_with_se(ys[:, 0])
    var_z, var_z_se = _variance_with_se(zs[:, 0], ws)
    report_details.update({
        "p_values": pvals,
        "bonferroni_level": alpha_level,
        "var_first_marginal_grw": var_y,
        "var_first_marginal_grw_se": var_y_se,
        "var_first_marginal_hybrid": var_z,
        "var_first_marginal_hybrid_se": var_z_se,
    })
    return TestReport(
        name="flash_vs_increment", statistic=min(pvals.values()),
        threshold=alpha_level, comparison=">=", n_samples=n_samples,
        details=report_details)


def check_norm_martingale(phi0, h, params, n_samples, seed, weight_bias=0.0,
                          n_bins=4):
    """E ||psi_t||^2 = 1 at every sample time, plus zero conditional drift.

    For each sample time the unweighted mean of the raw squared norms must
    be within 3 standard errors of 1; additionally, between consecutive
    sample times the mean weight increment conditioned on a coarse binning
    of the earlier weight must vanish within 3 SE per bin.

    Negative control: ``weight_bias`` scales all weights by (1 + bias); a
    bias of a few percent must make the check fail at these sample sizes.
    """
    spec = hybrid_ensemble if isinstance(params, HybridParams) else diosi_ensemble
    w = spec(phi0, h, params, seed, n_samples, store_states=False).weights
    w = w * (1.0 + weight_bias)
    times = params.sample_times
    ratios = {}
    means = {}
    for j, t in enumerate(times):
        mean, se = mean_se(w[:, j])
        means[f"t={t}"] = {"mean_weight": mean, "se": se}
        ratios[f"mean_t={t}"] = abs(mean - 1.0) / (3.0 * se)
    for j in range(len(times) - 1):
        w1, w2 = w[:, j], w[:, j + 1]
        edges = np.quantile(w1, np.linspace(0, 1, n_bins + 1))
        edges[0], edges[-1] = -np.inf, np.inf
        for b in range(n_bins):
            sel = (w1 >= edges[b]) & (w1 < edges[b + 1])
            if sel.sum() < 20:
                continue
            inc = w2[sel] - w1[sel]
            mean, se = mean_se(inc)
            ratios[f"increment_t{j}_bin{b}"] = abs(mean) / (3.0 * se)
    statistic = max(ratios.values())
    worst = max(ratios, key=ratios.get)
    return TestReport(
        name="norm_martingale", statistic=statistic, threshold=1.0,
        n_samples=n_samples,
        details={"per_time": means, "ratios_of_3se": ratios, "worst": worst,
                 "weight_bias": weight_bias,
                 "model": type(params).__name__})


def check_fdd_convergence(phi0, h, lam, mu_list, t_list, functional, n_samples,
                          seed, reference_substeps=4096, reference_lam=None,
                          unitary_substep=None):
    """Scaling-limit convergence of the hybrid process toward the diffusion.

    Couples the hybrid process at each mesh mu to the reference with
    common random numbers (one fine Wiener path per trajectory index,
    aggregated per mesh).  With w the raw squared norm at the last sample
    time and the reference the fine deterministic-step integrator, and
    D_mu = w_mu f_mu - w_ref f_ref per trajectory, it estimates

      weak error    e(mu) = |mean D_mu|    (distance of the laws)
      strong error  s(mu) = mean |D_mu|    (pathwise distance)

    and passes when both hold:

    - decrease: s(mu_min) - s(mu_max) >= 2.33 paired standard errors of
      |D_mu_min| - |D_mu_max|, a decrease significant at the one-sided 1%
      level.  A run whose s(mu_min) is at or below the roundoff floor 1e-9
      already agrees at the coarsest mesh and satisfies this subcheck.
    - closeness: e(mu_max) <= 3 pooled standard errors.

    The weak errors alone cannot carry the decrease: they sit below one
    standard error at every mesh, while the coupling resolves the pathwise
    one.  No convergence rate is asserted.  As in the other weighted
    checks, an effective sample size below MIN_EFFECTIVE_SAMPLE_SIZE at any
    mesh makes the run inconclusive, and an inconclusive run never passes.

    Negative control: ``reference_lam`` != lam moves the target law; the
    check must then fail conclusively.
    """
    from .diosi import DiosiParams

    mu_list = sorted(mu_list)
    for mu in mu_list:
        if abs(reference_substeps / mu - round(reference_substeps / mu)) > 1e-9:
            raise InvalidParameterError(
                "every mu must divide reference_substeps for common random numbers")
    if len(set(mu_list)) < 2:
        raise InvalidParameterError("a decrease needs at least two distinct mu")
    t_list = tuple(sorted(t_list))
    ref_lam = lam if reference_lam is None else reference_lam
    p_ref = DiosiParams(lam=ref_lam, n_substeps_per_unit_time=reference_substeps,
                        t_max=t_list[-1], sample_times=t_list)
    ref = diosi_ensemble(phi0, h, p_ref, seed, n_samples)
    wf_ref = ref.weights[:, -1] * functional.values(ref.states, phi0.grid)

    per_mu = {}
    errors = []
    strong_errors = []
    abs_devs = []
    for mu in mu_list:
        p_mu = HybridParams(lam=lam, mu=mu, t_max=t_list[-1], sample_times=t_list,
                            wiener_resolution=reference_substeps,
                            unitary_substep=unitary_substep)
        batch = hybrid_ensemble(phi0, h, p_mu, seed, n_samples, workers=1)
        wts = batch.weights[:, -1]
        wf = wts * functional.values(batch.states, phi0.grid)
        abs_dev = np.abs(wf - wf_ref)
        err = abs(float(wf.mean() - wf_ref.mean()))
        strong = float(abs_dev.mean())
        pooled = math.sqrt(wf.var(ddof=1) / n_samples
                           + wf_ref.var(ddof=1) / n_samples)
        paired = float(np.std(wf - wf_ref, ddof=1) / math.sqrt(n_samples))
        ess = effective_sample_size(wts)
        per_mu[f"mu={mu}"] = {
            "error": err, "strong_error": strong, "pooled_se": pooled,
            "paired_se": paired, "effective_sample_size": ess,
            "mean_weight": float(wts.mean()),
        }
        errors.append(err)
        strong_errors.append(strong)
        abs_devs.append(abs_dev)
        if ess < MIN_EFFECTIVE_SAMPLE_SIZE:
            per_mu[f"mu={mu}"]["status"] = "inconclusive"
            return TestReport(
                name="fdd_convergence", statistic=float("inf"), threshold=1.0,
                n_samples=n_samples, details={"per_mu": per_mu,
                                              "status": "inconclusive"})
    pooled_max = per_mu[f"mu={mu_list[-1]}"]["pooled_se"]
    drop_terms = abs_devs[0] - abs_devs[-1]
    drop = float(drop_terms.mean())
    drop_se = float(np.std(drop_terms, ddof=1) / math.sqrt(n_samples))
    z = drop / drop_se if drop_se > 0 else 0.0
    if strong_errors[0] <= STRONG_ERROR_FLOOR:
        decrease = 0.0
    else:
        decrease = STRONG_DECREASE_Z / z if z > 0 else float("inf")
    ratios = {
        "terminal_vs_3se": errors[-1] / (3.0 * pooled_max),
        "strong_decrease_vs_z": decrease,
    }
    details = {
        "per_mu": per_mu, "ratios": ratios, "mu_list": list(mu_list),
        "t_list": list(t_list), "functional": functional.kind,
        "reference_substeps": reference_substeps,
        "errors_by_mu": errors,
        "strong_errors_by_mu": strong_errors,
        "strong_decrease": drop, "strong_decrease_se": drop_se,
        "strong_decrease_z": z,
    }
    return TestReport(
        name="fdd_convergence", statistic=max(ratios.values()), threshold=1.0,
        n_samples=n_samples, standard_error=pooled_max, details=details)


def _kappa_mc(mu, s, t, n_samples, seed, stream_index, kappa_power):
    """Monte Carlo moments of the jump-count process for the lemma check.

    Returns (mean_a, se_a, tail_mean) where the a-part is
    E[|k(t)-k(s)|^power * sum X^2 over the jumps in (s, t]] / mu^2 and the
    tail is E[k(t)^2 1{k(t) > 6 mu t}].
    """
    keys = rngmod.philox_keys(seed, [stream_index], rngmod.ROLE_JUMP_TIMES)
    rng = next(rngmod.row_generators(keys))
    budget = mu * t
    m_total = int(budget + 12.0 * math.sqrt(budget + 1.0) + 64)
    chunk = max(1, min(n_samples, 20_000_000 // m_total))
    vals = np.empty(n_samples)
    tail = np.empty(n_samples)
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        ex = rng.standard_exponential((take, m_total))
        cum = np.cumsum(ex, axis=1)
        if not np.all(cum[:, -1] > budget):
            raise InvalidParameterError("exponential margin too small; raise m_total")
        ks = (cum <= mu * s).sum(axis=1)
        kt = (cum <= budget).sum(axis=1)
        idx = np.arange(m_total)
        mask = (idx[None, :] >= ks[:, None]) & (idx[None, :] < kt[:, None])
        sum_x2 = (ex * ex * mask).sum(axis=1)
        vals[done:done + take] = (kt - ks).astype(float) ** kappa_power * sum_x2 / mu**2
        tail[done:done + take] = np.where(kt > 6.0 * budget, kt.astype(float) ** 2, 0.0)
        done += take
    mean, se = mean_se(vals)
    return mean, se, float(tail.mean())


def check_kappa_lemma(mu_list, s, t, n_samples, seed, kappa_power=1):
    """Uniform-in-mu boundedness of the waiting-time moment, plus tail decay.

    (a) The Monte Carlo estimate of E[|k(t)-k(s)| sum X^2] / mu^2, divided
    by sqrt(|t-s|) + |t-s|^2, must agree across mu_list within a factor 10.
    (b) E[k(t)^2 1{k(t) > 6 mu t}] must be non-increasing in mu and below
    1e-3 at the largest mu (when mu t >= 50 the Poisson tail makes the
    estimate exactly zero at any feasible sample size).

    Negative control: ``kappa_power=2`` makes the a-statistic grow linearly
    in mu, so the factor-10 uniformity must fail across two decades.
    """
    if s > t:
        raise InvalidParameterError("need s <= t")
    mu_list = sorted(mu_list)
    gap = t - s
    denom = math.sqrt(gap) + gap * gap
    per_mu = {}
    ratios = []
    tails = []
    for j, mu in enumerate(mu_list):
        if gap == 0.0:
            mean = se = 0.0
            keys = rngmod.philox_keys(seed, [j], rngmod.ROLE_JUMP_TIMES)
            kt = next(rngmod.row_generators(keys)).poisson(mu * t, size=n_samples)
            tail_mean = float(np.where(kt > 6.0 * mu * t, kt.astype(float) ** 2,
                                       0.0).mean())
        else:
            mean, se, tail_mean = _kappa_mc(mu, s, t, n_samples, seed, j,
                                            kappa_power)
        ratio = (mean / denom) if denom > 0 else 0.0
        per_mu[f"mu={mu}"] = {"mean": mean, "se": se, "normalized": ratio,
                              "tail": tail_mean}
        ratios.append(ratio)
        tails.append(tail_mean)
    if gap == 0.0:
        spread = 1.0
    else:
        low = min(ratios)
        spread = max(ratios) / low if low > 0 else float("inf")
    non_increasing = all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    tail_ratio = tails[-1] / 1e-3
    statistic = max(spread / 10.0, tail_ratio, 0.0 if non_increasing else 2.0)
    return TestReport(
        name="kappa_lemma", statistic=statistic, threshold=1.0,
        n_samples=n_samples,
        details={"per_mu": per_mu, "spread": spread,
                 "tails_non_increasing": non_increasing,
                 "tail_at_mu_max": tails[-1], "kappa_power": kappa_power,
                 "s": s, "t": t})


def _condition_rhs(phi, t):
    """Closed-form upper bound 15 t^2 ||phi||^2 + 12 t ||phi'||^2 + 6 int (1-e^{-t x^2/2}) |phi''|^2."""
    from .grid import spectral_derivative

    x = phi.grid.x
    d1 = spectral_derivative(phi, 1)
    d2 = spectral_derivative(phi, 2)
    third = float(((1.0 - np.exp(-0.5 * t * x**2))
                   * np.abs(d2.amplitudes) ** 2).sum() * phi.grid.dx)
    return 15.0 * t * t * norm2(phi) + 12.0 * t * norm2(d1) + 6.0 * third


def check_condition_I_bound(phi, t_list, n_samples, seed, noise_scale=1.0):
    """Monte Carlo check of the Laplacian continuity bound for the collapse flow.

    At unit coupling, estimates E int |Lap((e^{x xi_t - x^2 t} - 1) phi)|^2 dx
    over xi_t ~ Normal(0, t) with spectral derivatives, and requires the
    estimate to stay below the closed-form bound (with 5 relative standard
    errors of slack) at every t, to decrease as t decreases, and - when the
    list spans 1e-1 down to 1e-4 - to drop below 1% of its largest-t value.

    Negative control: ``noise_scale=3`` draws the increment with three
    times its nominal standard deviation while the damping and the bound
    keep the nominal t; at small t the gradient term then overshoots the
    bound by roughly noise_scale^2, a reliable (light-tailed) failure.
    """
    t_list = tuple(sorted(t_list, reverse=True))
    grid = phi.grid
    x = grid.x
    k = grid.k
    nyq = nyquist_mass_fraction(phi)
    estimates = {}
    ratios = {}
    est_seq = []
    for j, t in enumerate(t_list):
        if t < 0:
            raise InvalidParameterError("times must be nonnegative")
        if t == 0.0:
            estimates["t=0"] = {"estimate": 0.0, "se": 0.0, "rhs": 0.0}
            est_seq.append(0.0)
            continue
        keys = rngmod.philox_keys(seed, [j], rngmod.ROLE_WIENER)
        xi = rngmod.fill_rows(keys, "standard_normal", np.empty((1, n_samples)))[0]
        xi *= noise_scale * math.sqrt(t)
        exponent = np.multiply.outer(xi, x)
        exponent -= t * x**2
        g = (np.exp(exponent) - 1.0) * phi.amplitudes[None, :]
        gk = scipy.fft.fft(g, axis=1)
        gk *= -(k**2)
        lap = scipy.fft.ifft(gk, axis=1)
        lhs = (lap.real**2 + lap.imag**2).sum(axis=1) * grid.dx
        mean, se = mean_se(lhs)
        rhs = _condition_rhs(phi, t)
        slack = 1.0 + 5.0 * (se / mean if mean > 0 else 0.0)
        estimates[f"t={t}"] = {"estimate": mean, "se": se, "rhs": rhs,
                               "slack_factor": slack}
        ratios[f"bound_t={t}"] = mean / (rhs * slack)
        est_seq.append(mean)
    non_increasing = all(b <= a * (1.0 + 1e-9) + 1e-300
                         for a, b in zip(est_seq, est_seq[1:]))
    if not non_increasing:
        ratios["monotone"] = 2.0
    if len(est_seq) >= 2 and t_list[0] / t_list[-1] >= 999.0 and est_seq[0] > 0:
        ratios["vanishing"] = est_seq[-1] / (0.01 * est_seq[0])
    statistic = max(ratios.values()) if ratios else 0.0
    return TestReport(
        name="condition_I_bound", statistic=statistic, threshold=1.0,
        n_samples=n_samples,
        details={"per_time": estimates, "ratios": ratios,
                 "nyquist_mass_fraction": nyq,
                 "nyquist_flag": nyq > 1e-10,
                 "noise_scale": noise_scale})
