"""The discrete jump collapse process, as a spec over the Trotter engine.

Unitary Schrodinger evolution is interrupted at exponential waiting times
(intensity mu) by Gaussian hits of inverse squared width alpha.  The hit
center is drawn from the smeared position density of the evolved state,
which is sampled exactly in two stages: a grid position from |psi|^2 dx,
plus independent Normal(0, 1/(2 alpha)) noise.  The two-stage law equals
the convolution density by construction.

Trajectories are ``engine._records`` on the jump clock the hybrid process
also runs on (``engine._jump_schedule``): Exp(1) waits X_k in the rng
layout and jump times T_k = X_1 / mu + ... + X_k / mu.  Factor k is the
exact unitary of duration X_k / mu (``grid._unitary_rows``) followed by
the hit.  As for every process, the factor is ``factor(b0, b1, flags) ->
step``; here the step is the hit on the block's rows.  It draws each
row's center from that row's evolved state with the row's k-th uniform
and k-th normal, writes it to the call's (N, K) flash centers, multiplies
by (alpha/pi)^(1/4) exp(-(alpha/2)(x - y)^2) (``grid._hit_rows``),
returns the raw squared norm, renormalizes (``grid._normalize_rows``) and
raises the row's boundary flag from the renormalized state.  The uniforms
and normals, from the row's own ROLE_FLASH_POSITION and ROLE_FLASH_NOISE
streams, are drawn for every row before the row blocks run
(``_flash_draws``), and the centers allocated beside them, so the blocks
do array work only.  Snapshots are the normalized states after the residual
unitary from the last jump; the weights are identically 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from . import rng as rngmod
from .errors import DegenerateStateError, InvalidParameterError
from .grid import (
    BOUNDARY_MASS_LIMIT,
    _boundary_masses,
    _hit_rows,
    _norm2_rows,
    _normalize_rows,
    _require_positive,
    _validate_sample_times,
)


@dataclass(frozen=True)
class GrwParams:
    """Jump-process parameters: intensity mu, hit sharpness alpha."""

    mu: float
    alpha: float
    t_max: float
    sample_times: tuple = ()

    def __post_init__(self):
        _require_positive(mu=self.mu, alpha=self.alpha, t_max=self.t_max)
        object.__setattr__(
            self, "sample_times", _validate_sample_times(self.sample_times, self.t_max))


def flash_density(psi, alpha, y):
    """Density of the hit center: sqrt(alpha/pi) sum_j exp(-alpha(x_j-y)^2) |psi_j|^2 dx.

    psi must be normalized; the density integrates to 1 over y whenever the
    grid captures the support.  Accepts scalar or array y.
    """
    x = psi.grid.x
    d = np.abs(psi.amplitudes) ** 2 * psi.grid.dx
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    vals = math.sqrt(alpha / math.pi) * np.exp(
        -alpha * (x[None, :] - ys[:, None]) ** 2) @ d
    return float(vals[0]) if np.isscalar(y) or np.ndim(y) == 0 else vals


def _sample_centers(amps, grid, alpha, uniforms, normals):
    """One hit center per row of (m, n) amplitudes, from that row's draws.

    Two-stage exact sampler: a grid point X* from the discrete density
    |psi_j|^2 dx (inverse CDF on the row's uniform; the intra-cell position
    is the cell center), then Y = X* + G with G ~ Normal(0, 1/(2 alpha)),
    G the row's standard normal times sqrt(1/(2 alpha)).
    """
    cdf = np.cumsum(np.abs(amps) ** 2, axis=1)
    if not np.all(cdf[:, -1] * grid.dx > 1e-300):
        raise DegenerateStateError("cannot sample the flash center of a vanishing state")
    u = uniforms * cdf[:, -1]
    j = np.minimum(np.count_nonzero(cdf <= u[:, None], axis=1), grid.n_points - 1)
    return grid.x[j] + normals * math.sqrt(0.5 / alpha)


def sample_flash_center(psi, alpha, rng, noise_rng=None):
    """Draw a hit center with density flash_density(psi, alpha, .).

    The row sampler of the hit factor on a batch of one: one uniform from
    ``rng``, then one normal from ``noise_rng``, which lets callers keep
    the position and noise draws on separate streams; it defaults to
    ``rng``.
    """
    if alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    u = np.array([rng.random()])
    g = np.array([(noise_rng or rng).standard_normal()])
    return float(_sample_centers(psi.amplitudes[None, :], psi.grid, alpha, u, g)[0])


def _flash_draws(seed, indices, n_hits):
    """(uniforms, normals), each (N, n_hits): the first n_hits values of each row's
    ROLE_FLASH_POSITION and ROLE_FLASH_NOISE streams."""
    shape = (len(indices), n_hits)
    return (rngmod.fill_rows(rngmod.philox_keys(seed, indices, rngmod.ROLE_FLASH_POSITION),
                             "random", np.empty(shape)),
            rngmod.fill_rows(rngmod.philox_keys(seed, indices, rngmod.ROLE_FLASH_NOISE),
                             "standard_normal", np.empty(shape)))


def _grw_records(phi0, h, p, seed, lo, hi, store_states=True, deterministic=False,
                 workers=None):
    """GRW spec: the Trajectories of the jump indices lo .. hi-1, one ``engine._records`` call.

    The clock is ``engine._jump_schedule`` up to t_max (every wait X_k = 1
    when ``deterministic``), the factor the Gaussian hit on the block's rows
    of the flash draws and of the (N, K) centers it fills, and the weights
    are 1.  Every jump is a factor, including those after the last sample
    time, whose flashes are recorded too.  Without ``store_states`` the rows
    keep no states, and their boundary flags come from the hits alone.
    """
    indices = range(lo, hi)
    # one more column at t_max, after every jump, runs the jumps that follow
    # the last sample time; it takes no snapshot
    _, taus, _, _ = clock = engine._jump_schedule(
        seed, indices, p.mu, p.sample_times + (p.t_max,), p.t_max, deterministic)
    uniforms, normals = _flash_draws(seed, indices, taus.shape[1])
    centers = np.zeros(taus.shape)

    def factor(b0, b1, flags):
        u, g, c = uniforms[b0:b1], normals[b0:b1], centers[b0:b1]  # the block's rows

        def hit(amps, act, k):
            y = _sample_centers(amps, phi0.grid, p.alpha, u[act, k], g[act, k])
            c[act, k] = y
            _hit_rows(amps, phi0.grid, p.alpha, y, out=amps)
            n2 = _norm2_rows(amps, phi0.grid.dx)
            _normalize_rows(amps, n2, out=amps)
            flags[act] |= _boundary_masses(amps, phi0.grid) > BOUNDARY_MASS_LIMIT
            return n2

        return hit

    return engine._records(phi0, h, seed, indices, p.sample_times, clock, factor, centers,
                           store_states, workers, unit_weights=True)


def grw_trajectory(phi0, h, p, seed, index=0):
    """Simulate one jump-process trajectory; deterministic given (seed, index).

    The state evolves unitarily between jumps; at each jump time the
    center is sampled from the flash density of the *evolved* (pre-hit)
    state, the Gaussian hit is applied raw, and the state is renormalized.
    Snapshots at sample_times are the normalized states (weight 1); a jump
    at a sample time comes before that snapshot.  This is a batch of one:
    row ``index`` of any ensemble is the same row bit for bit.
    """
    return _grw_records(phi0, h, p, seed, index, index + 1)[0]


def grw_ensemble(phi0, h, p, seed, n_trajectories, workers=None):
    """Independent trajectories with indices 0 .. n-1, as one Trajectories.

    One engine call; ``workers`` caps its threads (``engine.engine_threads``).
    """
    return _grw_records(phi0, h, p, seed, 0, int(n_trajectories), workers=workers)
