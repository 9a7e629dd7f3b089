"""The discrete jump collapse process, as a spec over the Trotter engine.

Unitary Schrodinger evolution is interrupted at exponential waiting times
(intensity mu) by Gaussian hits of inverse squared width alpha.  The hit
center is drawn from the smeared position density of the evolved state,
which is sampled exactly in two stages: a grid position from |psi|^2 dx,
plus independent Normal(0, 1/(2 alpha)) noise.  The two-stage law equals
the convolution density by construction.

Trajectories run on ``diosi._trotter_product``: factor k is the unitary
from jump T_{k-1} to jump T_k followed by the hit factor, which draws each
row's center from that row's evolved state on the row's own
ROLE_FLASH_POSITION and ROLE_FLASH_NOISE streams, multiplies by
(alpha/pi)^(1/4) exp(-(alpha/2)(x - y)^2) (``grid._hit_rows``), records
the raw squared norm and renormalizes (``grid._normalize_rows``).  Snapshots are the normalized states after the residual
unitary from the last jump; the weights are identically 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .diosi import _flat_flashes, _in_blocks, _schedule, _trotter_product
from .errors import DegenerateStateError, InvalidParameterError
from .grid import (
    BOUNDARY_MASS_LIMIT,
    _boundary_masses,
    _hit_rows,
    _norm2_rows,
    _normalize_rows,
    _require_positive,
    _substep_cap,
    _validate_sample_times,
    _validate_substep,
)
from .records import Trajectories


@dataclass(frozen=True)
class GrwParams:
    """Jump-process parameters: intensity mu, hit sharpness alpha."""

    mu: float
    alpha: float
    t_max: float
    sample_times: tuple = ()
    unitary_substep: float = None

    def __post_init__(self):
        _require_positive(mu=self.mu, alpha=self.alpha, t_max=self.t_max)
        _validate_substep(self.unitary_substep)
        object.__setattr__(
            self, "sample_times", _validate_sample_times(self.sample_times, self.t_max))


def sample_jump_times(mu, t_max, rng):
    """Jump times T_n = sum_{k<=n} X_k / mu with X_k ~ Exp(1) i.i.d.

    Returns the strictly increasing times <= t_max; their count is
    Poisson(mu * t_max) distributed.
    """
    if mu <= 0 or t_max <= 0:
        raise InvalidParameterError("mu and t_max must be positive")
    budget = mu * t_max
    total = 0.0
    chunks = []
    # expected count + generous tail margin per draw round
    size = max(16, int(budget + 8.0 * math.sqrt(budget) + 16))
    while True:
        xs = rng.standard_exponential(size)
        cum = total + np.cumsum(xs)
        chunks.append(cum[cum <= budget])
        if cum[-1] > budget:
            break
        total = float(cum[-1])
    arrivals = np.concatenate(chunks) if chunks else np.empty(0)
    return arrivals / mu


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


def _flash_keys(seed, indices):
    """(2, N, 2) Philox keys of each row's ROLE_FLASH_POSITION and ROLE_FLASH_NOISE streams."""
    return np.stack([rngmod.philox_keys(seed, indices, role)
                     for role in (rngmod.ROLE_FLASH_POSITION, rngmod.ROLE_FLASH_NOISE)])


def _hit_factor(grid, alpha, keys, n_factors):
    """The Gaussian hit as an engine factor for the rows of one block.

    ``keys`` holds the block's rows of ``_flash_keys``; hit k of row r uses
    the k-th uniform and the k-th normal of the row's two streams, drawn up
    front for n_factors hits.  Returns (hit, centers, flags): the factor,
    the (rows, n_factors) centers it draws, and the per-row flag it ORs
    with the boundary mass after every hit.
    """
    rows = keys.shape[1]
    uniforms = rngmod.fill_rows(keys[0], "random", np.empty((rows, n_factors)))
    normals = rngmod.fill_rows(keys[1], "standard_normal", np.empty((rows, n_factors)))
    r_all = np.arange(rows)
    centers = np.zeros((rows, n_factors))
    flags = np.zeros(rows, dtype=bool)

    def hit(amps, act, k):
        r = r_all[act]
        y = _sample_centers(amps, grid, alpha, uniforms[r, k], normals[r, k])
        centers[r, k] = y
        _hit_rows(amps, grid, alpha, y, out=amps)
        n2 = _norm2_rows(amps, grid.dx)
        _normalize_rows(amps, n2, out=amps)
        flags[r] |= _boundary_masses(amps, grid) > BOUNDARY_MASS_LIMIT
        return n2

    return hit, centers, flags


def _grw_records(phi0, h, p, seed, lo, hi):
    """The Trajectories of the jump indices lo .. hi-1, in row blocks.

    Row i takes its jump times from sample_jump_times on its
    ROLE_JUMP_TIMES stream; every jump up to t_max is a factor, including
    those after the last sample time, whose flashes are recorded too.
    """
    indices = range(lo, hi)
    jumps = [sample_jump_times(p.mu, p.t_max, g) for g in rngmod.row_generators(
        rngmod.philox_keys(seed, indices, rngmod.ROLE_JUMP_TIMES))]
    flash_keys = _flash_keys(seed, indices)
    width = max(map(len, jumps), default=0)
    jump_times = np.full((len(jumps), width), np.inf)
    taus = np.zeros((len(jumps), width))
    for r, t in enumerate(jumps):
        jump_times[r, :t.size] = t
        taus[r, :t.size] = np.diff(t, prepend=0.0)
    times = p.sample_times
    n_times = len(times)
    # one more column, after every jump and with no residual unitary, runs the
    # jumps that follow the last sample time; its snapshot is dropped
    ext = times + (np.finfo(float).max,)
    counts, taus, residual = _schedule(jump_times, taus, ext, ext)
    residual[:, -1] = 0.0
    n_factors = taus.shape[1]

    def block(b0, b1):
        hit, centers, hit_flags = _hit_factor(phi0.grid, p.alpha, flash_keys[:, b0:b1],
                                              n_factors)
        _, states, flags, norms = _trotter_product(
            phi0, h, hit, counts[b0:b1], taus[b0:b1], residual[b0:b1],
            _substep_cap(p.unitary_substep), flash_norms=True)
        return Trajectories(seed, phi0.grid, times, indices[b0:b1], np.ones((b1 - b0, n_times)),
                            states[:, :n_times], flags[:, :n_times].any(axis=1) | hit_flags,
                            *_flat_flashes(counts[b0:b1, -1], jump_times[b0:b1, :n_factors],
                                           centers, norms))

    return _in_blocks(len(jumps), phi0.grid.n_points, block)


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
    """Independent trajectories with indices 0 .. n-1, as one Trajectories; one
    engine call per worker."""
    from .parallel import run_sliced

    return run_sliced(_grw_records, (phi0, h, p, seed), n_trajectories, workers)
