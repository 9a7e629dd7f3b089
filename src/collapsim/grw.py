"""The discrete jump collapse process.

Unitary Schrodinger evolution is interrupted at exponential waiting times
(intensity mu) by Gaussian hits of inverse squared width alpha.  The hit
center is drawn from the smeared position density of the evolved state,
which is sampled exactly in two stages: a grid position from |psi|^2 dx,
plus independent Normal(0, 1/(2 alpha)) noise.  The two-stage law equals
the convolution density by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import DegenerateStateError, InvalidParameterError
from .grid import (
    NORMALIZED,
    _require_positive,
    boundary_mass,
    evolve_unitary,
    gaussian_hit,
    norm2,
    normalize,
)
from .records import FlashEvent, TrajectoryRecord

BOUNDARY_MASS_LIMIT = 1e-6


def _validate_substep(unitary_substep):
    if unitary_substep is not None:
        _require_positive(unitary_substep=unitary_substep)


def _validate_sample_times(sample_times, t_max):
    times = tuple(float(t) for t in sample_times)
    if any(t < 0 or t > t_max + 1e-12 for t in times):
        raise InvalidParameterError("sample_times must lie in [0, t_max]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidParameterError("sample_times must be strictly increasing")
    return times


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


def sample_flash_center(psi, alpha, rng, noise_rng=None):
    """Draw a hit center with density flash_density(psi, alpha, .).

    Two-stage exact sampler: a grid point X* from the discrete density
    |psi_j|^2 dx (inverse CDF; intra-cell position is the cell center),
    then Y = X* + G with G ~ Normal(0, 1/(2 alpha)).  ``noise_rng`` lets
    callers keep the position and noise draws on separate streams;
    it defaults to ``rng``.
    """
    if alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    weights = np.abs(psi.amplitudes) ** 2
    total = weights.sum() * psi.grid.dx
    if not (total > 1e-300):
        raise DegenerateStateError("cannot sample the flash center of a vanishing state")
    cdf = np.cumsum(weights)
    u = rng.random() * cdf[-1]
    j = int(np.searchsorted(cdf, u, side="right"))
    j = min(j, psi.grid.n_points - 1)
    g = (noise_rng or rng).standard_normal() * math.sqrt(0.5 / alpha)
    return float(psi.grid.x[j] + g)


def grw_trajectory(phi0, h, p, seed, index=0):
    """Simulate one jump-process trajectory; deterministic given (seed, index).

    The state evolves unitarily between jumps; at each jump time the
    center is sampled from the flash density of the *evolved* (pre-hit)
    state, the Gaussian hit is applied raw, and the state is renormalized.
    Snapshots at sample_times are the normalized states (weight 1).
    """
    if phi0.label != NORMALIZED:
        raise InvalidParameterError("phi0 must be normalized")
    jump_rng = rngmod.stream(seed, index, rngmod.ROLE_JUMP_TIMES)
    pos_rng = rngmod.stream(seed, index, rngmod.ROLE_FLASH_POSITION)
    noise_rng = rngmod.stream(seed, index, rngmod.ROLE_FLASH_NOISE)
    jumps = sample_jump_times(p.mu, p.t_max, jump_rng)

    state = phi0
    t_cur = 0.0
    flagged = False
    flashes = []
    snaps = []
    times = p.sample_times
    si = 0

    def advance(target):
        nonlocal state, t_cur
        if target > t_cur:
            state = evolve_unitary(state, h, target - t_cur, p.unitary_substep)
            t_cur = target

    for t_jump in jumps:
        # snapshots strictly before this jump; at a tie the hit comes first,
        # matching the convention that the post-collapse state holds at T_n
        while si < len(times) and times[si] < t_jump:
            advance(times[si])
            snaps.append(normalize(state))
            si += 1
        advance(float(t_jump))
        center = sample_flash_center(state, p.alpha, pos_rng, noise_rng)
        hit = gaussian_hit(state, center, p.alpha)
        hit_n2 = norm2(hit)
        flashes.append(FlashEvent(float(t_jump), center, hit_n2))
        state = normalize(hit)
        flagged = flagged or boundary_mass(state) > BOUNDARY_MASS_LIMIT
    while si < len(times):
        advance(times[si])
        snaps.append(normalize(state))
        si += 1
    flagged = flagged or any(boundary_mass(s) > BOUNDARY_MASS_LIMIT for s in snaps)

    return TrajectoryRecord(
        seed=int(seed),
        index=int(index),
        times=times,
        states=tuple(snaps),
        weights=np.ones(len(times)),
        flashes=tuple(flashes),
        boundary_flag=flagged,
    )


def grw_ensemble(phi0, h, p, seed, n_trajectories, workers=None):
    """Independent trajectories with indices 0 .. n-1; order-deterministic."""
    from .parallel import run_indexed

    return run_indexed(grw_trajectory, (phi0, h, p, seed), n_trajectories, workers)
