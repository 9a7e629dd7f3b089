"""The Diosi and hybrid processes, as specs over the Trotter engine.

Each process is a clock times a factor, run by ``engine._records`` (see
``engine`` for the product, its row blocks and threads, and the one
boundary-flag rule).  The hybrid shares the jump clock of GRW
(``grw``), ``engine._jump_schedule``; only the factor applied at a jump
differs.  A factor is ``factor(b0, b1, flags) -> step``; both factors
here give ``engine._flow_step`` over the block's increments and leave
the flags to the engine.  The hybrid owns its (N, K) flash centers, the
rescaled increments, and passes them to ``engine._records``.

* Diosi, the linear diffusion under the reference measure,

      d psi = -i H psi dt + sqrt(lam) x psi dxi - (lam/2) x^2 psi dt,

  integrated by deterministic-step splitting: every factor has
  tau = dt = 1/R and is the exact flow exp(sqrt(lam) x dxi - lam x^2 dt)
  over Wiener cell k at resolution R.  The squared norm of the raw state
  is a martingale (E ||psi_t||^2 = 1 at every resolution, since the exact
  flow has unit mean-square gain pointwise), and reweighting an ensemble
  by the raw squared norms produces the physical collapse statistics.

* the hybrid process: factor k is the unitary of random duration
  X_{k+1}/mu followed by the flow over the deterministic cell
  [k/mu, (k+1)/mu].  The flow increments always span the deterministic
  mesh regardless of the realized waiting times; the mismatch between the
  random jump times and the mesh is intrinsic to the construction and is
  kept literal here.  As mu grows with mu * alpha / 2 = lam fixed, the
  hybrid reproduces the jump process in law and converges to the
  diffusion process.

* the GRW jump process (``grw``): factor k is the unitary of duration
  X_k/mu up to jump time T_k followed by a Gaussian hit whose center is
  drawn from the evolved row, after which the row is renormalized.  A hit
  at center y is the flow over a cell of length 1/mu with
  dxi = 2 sqrt(lam) y / mu, times a per-row constant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from . import rng as rngmod
from .errors import InvalidParameterError
from .grid import _check_flow_budget, _require_positive, _validate_sample_times

__all__ = [
    "DiosiParams",
    "HybridParams",
    "diosi_trajectory",
    "diosi_ensemble",
    "hybrid_trajectory",
    "hybrid_ensemble",
]

@dataclass(frozen=True)
class DiosiParams:
    """Diffusion-process parameters and integrator resolution.

    ``n_substeps_per_unit_time`` (R) fixes the deterministic Trotter mesh.
    The requested sample times are snapped to the nearest mesh point
    (within half a step), and ``sample_times`` holds the snapped times
    steps / R, the times the states are taken at; a snapped time past
    t_max is rejected.  The collapse factor per cell is exact, so the
    integrator's error is the second-order splitting error in the unitary
    part only.
    """

    lam: float
    n_substeps_per_unit_time: int
    t_max: float
    sample_times: tuple = ()

    def __post_init__(self):
        _require_positive(lam=self.lam, t_max=self.t_max)
        res = self.n_substeps_per_unit_time
        if not res >= 1:
            raise InvalidParameterError("n_substeps_per_unit_time must be >= 1")
        times = _validate_sample_times(self.sample_times, self.t_max)
        snapped = tuple(s / res for s in _snap_steps(times, res))
        if any(t > self.t_max + 1e-12 for t in snapped):
            raise InvalidParameterError(
                f"sample times {times} snap past t_max = {self.t_max} on the mesh 1/{res}")
        object.__setattr__(self, "sample_times", snapped)


@dataclass(frozen=True)
class HybridParams:
    """Hybrid-process parameters; alpha = 2 lam / mu is derived, never stored.

    ``wiener_resolution`` pins the fine mesh the Wiener path is drawn on
    (defaults to mu, one cell per mesh interval).  Choosing a common fine
    resolution across runs with different mu gives common random numbers:
    the coarse increments are sums of the same underlying cells.
    ``deterministic_times`` forces X_k = 1 (jumps exactly on the mesh).
    A ``wiener_resolution`` that is not a positive multiple of mu is
    rejected.
    """

    lam: float
    mu: float
    t_max: float
    sample_times: tuple = ()
    deterministic_times: bool = False
    wiener_resolution: float = None

    def __post_init__(self):
        _require_positive(lam=self.lam, mu=self.mu, t_max=self.t_max)
        if self.wiener_resolution is not None:
            rngmod.coarse_ratio(self.wiener_resolution, self.mu)
        object.__setattr__(
            self, "sample_times", _validate_sample_times(self.sample_times, self.t_max))

    @property
    def alpha(self):
        return 2.0 * self.lam / self.mu


def _snap_steps(sample_times, resolution):
    steps = [int(round(t * resolution)) for t in sample_times]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise InvalidParameterError(
            "sample_times collide after snapping to the integrator mesh; "
            "raise n_substeps_per_unit_time")
    return steps


def _hybrid_records(phi0, h, p, seed, store_states, lo, hi, workers=None):
    """Hybrid spec: the Trajectories of indices lo .. hi-1, one ``engine._records`` call.

    The clock is ``engine._jump_schedule`` up to the last sample time, and
    the factor the flow over the coarse increments: row i's are the coarse
    sums of its Wiener cells at wiener_resolution, in the rng layout, read
    before the blocks (together for the rows with equally many flashes).  Row r's
    flashes are its factors, at the jump times, with centers
    (mu / (2 sqrt(lam))) dxi.
    """
    indices = list(range(lo, hi))
    base = p.wiener_resolution if p.wiener_resolution is not None else p.mu
    wiener = rngmod.WienerRows(seed, indices, base)  # validates the resolution
    ratio = rngmod.coarse_ratio(base, p.mu)
    dt_cell = 1.0 / p.mu
    _check_flow_budget(phi0.grid, p.lam, dt_cell)
    times = p.sample_times
    _, taus, counts, _ = clock = engine._jump_schedule(
        seed, indices, p.mu, times, times[-1] if times else 0.0, p.deterministic_times)
    n_flashes = counts.max(axis=1, initial=0)
    n_factors = taus.shape[1]
    # rows with the same number of flows read their cells together, at
    # most engine._MAX_INCREMENT_ELEMENTS at a time
    dxis = np.zeros(taus.shape)
    for n in np.unique(n_flashes[n_flashes > 0]):
        same = np.flatnonzero(n_flashes == n)
        step = max(1, engine._MAX_INCREMENT_ELEMENTS // (n * ratio))
        for g in range(0, same.size, step):
            rows = same[g:g + step]
            dxis[rows, :n] = rngmod.coarse_sums(
                wiener.fill(rows, 0, np.empty((rows.size, n * ratio))), ratio)
    centers = (p.mu / (2.0 * math.sqrt(p.lam))) * dxis

    def factor(b0, b1, flags):
        return engine._flow_step(phi0.grid, p.lam, dt_cell, lambda k0, k1: dxis[b0:b1, k0:k1],
                                 n_factors, b1 - b0, flashes=True)

    return engine._records(phi0, h, seed, indices, times, clock, factor, centers, store_states,
                           workers)


def diosi_trajectory(phi0, h, p, seed, index=0, store_states=True):
    """One diffusion trajectory; deterministic given (seed, index).

    The row stores, at each sample time, the raw squared norm (the
    importance weight under the reference measure) and the normalized
    state.
    """
    return diosi_ensemble(phi0, h, p, seed, 1, store_states, index)[0]


def diosi_ensemble(phi0, h, p, seed, n_trajectories, store_states=True,
                   first_index=0, workers=None):
    """Batch-integrated ensemble of diffusion trajectories, as a Trajectories.

    Every factor lasts 1/R and flows over Wiener cell k at resolution R.
    The rows are the indices first_index .. first_index + n - 1, with
    raw-norm weights, normalized states when ``store_states``, boundary
    flags and no flashes.  Row i flows over exactly its own Wiener cells
    at resolution R (the rng layout), so single-trajectory and batched
    runs coincide bit for bit.  The boundary flag is computed from the
    batch amplitudes, so weights-only runs carry it too.  ``workers`` caps
    the engine's threads (``engine.engine_threads``).
    """
    res = p.n_substeps_per_unit_time
    dt = 1.0 / res
    _check_flow_budget(phi0.grid, p.lam, dt)
    steps = np.array(_snap_steps(p.sample_times, res), dtype=np.int64)
    indices = list(range(first_index, first_index + n_trajectories))

    def factor(b0, b1, flags):
        wiener = rngmod.WienerRows(seed, indices[b0:b1], res)  # one key cache per block
        return engine._flow_step(phi0.grid, p.lam, dt, lambda k0, k1: wiener.fill(
            slice(None), k0, np.empty((b1 - b0, k1 - k0))), int(steps.max(initial=0)), b1 - b0)

    clock = None, dt, np.tile(steps, (len(indices), 1)), None
    return engine._records(phi0, h, seed, indices, p.sample_times, clock, factor,
                           store_states=store_states, workers=workers)


def hybrid_trajectory(phi0, h, p, seed, index=0, store_states=True):
    """One hybrid trajectory: random-duration unitaries, mesh-cell flows.

    Per factor k the state evolves unitarily for X_{k+1}/mu, then the exact
    collapse flow over the deterministic cell [k/mu, (k+1)/mu] is applied;
    a snapshot at time t finishes with the residual unitary of duration
    t - T_kappa(t) applied to a copy.  The raw squared norm right after
    factor k is recorded on the flash event (center Z_k, the rescaled
    increment), and the weight at a sample time is the raw squared norm
    there.  Waiting times and Wiener increments come from independent
    streams.  Weights-only runs skip the residual unitary and carry no
    boundary flag.  This is a batch of one: row ``index`` of any ensemble
    is the same row bit for bit.
    """
    return _hybrid_records(phi0, h, p, seed, store_states, index, index + 1)[0]


def hybrid_ensemble(phi0, h, p, seed, n_trajectories, store_states=True,
                    workers=None):
    """Independent hybrid trajectories with indices 0 .. n-1, as one Trajectories.

    One engine call; ``workers`` caps its threads (``engine.engine_threads``).
    """
    return _hybrid_records(phi0, h, p, seed, store_states, 0, int(n_trajectories), workers)
