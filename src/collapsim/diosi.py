"""The stochastic Trotter product: one batched engine, three processes over it.

The paper's stochastic Trotter formula is an alternating product of
unitary factors exp(-i tau H) and multiplicative collapse factors.
``_trotter_product`` applies it to a batch of trajectories held as an
(N, n) amplitude array, worked through in row blocks of about 2^14
amplitudes.  Each row has its own unitary durations tau_r, split into
ceil(tau_r / cap) equal split steps when V and the kinetic term are both
present (a substep goes only to the rows that still need it), and its own
number of factors before each sample time.  The collapse factor is a value
the spec passes in: it acts in place on the evolved rows of factor k and
gives back their raw squared norms, which the engine keeps for the flash
records.  At a sample time a snapshot hook records the raw squared norm
(the weight) and, on a copy after the residual unitary, the normalized
state and the boundary mass.

The row operations themselves are defined once, in ``grid``:
``_unitary_rows``, ``_flow_rows``, ``_norm2_rows`` and ``_normalize_rows``
(the GRW hit adds ``_hit_rows``).  The single-state propagators there are
the same operations on a batch of one.  This module holds the engine, the
factor schedules and the fetching of Wiener increments.  Every operation
acts row by row (elementwise products, FFTs along the last axis, per-row
sums and per-row random streams), so a row's bytes do not depend on its
batch or its block, and a single trajectory is a batch of one.

Three processes are thin specs over the engine:

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

* the GRW jump process (``grw``): factor k is the unitary up to jump time
  T_k followed by a Gaussian hit whose center is drawn from the evolved
  row, after which the row is renormalized.  A hit at center y is the flow
  over a cell of length 1/mu with dxi = 2 sqrt(lam) y / mu, times a
  per-row constant.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .errors import InvalidParameterError
from .grid import (
    BOUNDARY_MASS_LIMIT,
    NORMALIZED,
    WaveFunction,
    _boundary_masses,
    _check_flow_budget,
    _flow_rows,
    _norm2_rows,
    _normalize_rows,
    _require_positive,
    _split_phases,
    _substep_cap,
    _unitary_rows,
    _validate_sample_times,
    _validate_substep,
)
from .records import FlashEvent, TrajectoryRecord

__all__ = [
    "DiosiParams",
    "HybridParams",
    "diosi_trajectory",
    "diosi_ensemble",
    "hybrid_trajectory",
    "hybrid_ensemble",
]

# Amplitudes per row block (256 KiB of complex128), so that a block's
# working arrays stay in cache: 64 rows at n = 256.
_BLOCK_AMPLITUDES = 1 << 14

# Wiener increments a block holds at once (32 MB of float64).
_MAX_INCREMENT_ELEMENTS = 1 << 22


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
    """

    lam: float
    mu: float
    t_max: float
    sample_times: tuple = ()
    deterministic_times: bool = False
    wiener_resolution: float = None
    unitary_substep: float = None

    def __post_init__(self):
        _require_positive(lam=self.lam, mu=self.mu, t_max=self.t_max)
        _validate_substep(self.unitary_substep)
        object.__setattr__(
            self, "sample_times", _validate_sample_times(self.sample_times, self.t_max))

    @property
    def alpha(self):
        return 2.0 * self.lam / self.mu


class _Batch(NamedTuple):
    """Output for N rows, T sample times and K factors.

    The engine fills the first four fields; the specs with jumps add the
    flash times and centers and the number of flashes of each row (entries
    past a row's flashes are padding).
    """

    weights: np.ndarray  # (N, T) raw squared norms at the sample times
    states: np.ndarray  # (N, T, n) normalized snapshots, or None
    flags: np.ndarray  # (N, C) boundary mass above the limit at check c (any flags a row)
    flash_norms: np.ndarray  # (N, K) raw squared norm after factor k, or None
    flash_times: np.ndarray = None  # (N, K)
    flash_centers: np.ndarray = None  # (N, K)
    n_flashes: np.ndarray = None  # (N,)


def _flow_factor(grid, lam, dt, increments, n_cells, rows, norms=False):
    """The exact collapse flow over mesh cells of length dt, as an engine factor.

    Factor k applies ``grid._flow_rows`` to row r with dxi
    ``increments(k0, k1)[r, k - k0]``, fetched for cells k0 <= k < k1 at
    most ``_MAX_INCREMENT_ELEMENTS`` at a time and never past ``n_cells``.
    Returns the raw squared norms after the flow when ``norms``, else None.
    """
    buf = np.empty((rows, grid.n_points))
    chunk = max(1, _MAX_INCREMENT_ELEMENTS // max(rows, 1))
    if chunk > rngmod.WIENER_BLOCK:  # end chunks on Wiener block boundaries
        chunk -= chunk % rngmod.WIENER_BLOCK
    held = [0, 0, None]  # cells k0 .. k1 and their increments

    def flow(amps, act, k):
        if not held[0] <= k < held[1]:
            held[:2] = k, min(n_cells, k + chunk)
            held[2] = increments(*held[:2])
        dxi = held[2][act, k - held[0]]
        _flow_rows(amps, grid, lam, dt, dxi, out=amps, buf=buf[:dxi.size])
        return _norm2_rows(amps, grid.dx) if norms else None

    return flow


def _trotter_product(phi0, h, factor, counts, tau, residual=None, cap=None,
                     store_states=True, flash_norms=False):
    """The Trotter product on one row block of copies of phi0.

    Row r applies factors k = 0, 1, ...: the unitary of duration tau (a
    float for every factor of every row, else ``tau[r, k]``) and then the
    collapse factor ``factor(amps, act, k)``, which acts in place on the
    evolved rows ``act`` of the block (a slice or an index array) and
    returns their raw squared norms, recorded when ``flash_norms``.
    Snapshot j follows the first ``counts[r, j]`` factors (counts
    non-decreasing in j): the weight is the raw squared norm there; the
    state is normalized after the unitary of duration ``residual[r, j]`` on
    a copy (none when residual is None), and the boundary flag of check j
    is taken from that state whenever it is formed (always when residual
    is None).  Returns a _Batch.
    """
    grid = phi0.grid
    rows, n_snap = counts.shape
    n, dx = grid.n_points, grid.dx
    weights = np.empty((rows, n_snap))
    states = np.empty((rows, n_snap, n), dtype=np.complex128) if store_states else None
    flags = np.zeros((rows, n_snap), dtype=bool)
    norms = np.zeros((rows, tau.shape[1])) if flash_norms else None
    if rows == 0:
        return _Batch(weights, states, flags, norms)

    shared_tau = isinstance(tau, float)
    phases = _split_phases(h, tau) if shared_tau else None
    amps = np.tile(phi0.amplitudes, (rows, 1))
    done = np.zeros(rows, dtype=np.int64)
    for j in range(n_snap):
        target = counts[:, j]
        lockstep = done.min() == done.max() and target.min() == target.max()
        for k in range(int(done.min()), int(target.max())):
            act = slice(None) if lockstep else np.flatnonzero((done <= k) & (k < target))
            sub = _unitary_rows(amps[act], h, tau if shared_tau else tau[act, k], cap, phases)
            got = factor(sub, act, k)
            if flash_norms:
                norms[act, k] = got
            if lockstep:
                amps = sub
            else:
                amps[act] = sub
        done = target
        weights[:, j] = _norm2_rows(amps, dx)
        if residual is not None and not store_states:
            continue
        snap = amps if residual is None else _unitary_rows(amps.copy(), h, residual[:, j], cap)
        flags[:, j] = _boundary_masses(snap, grid) > BOUNDARY_MASS_LIMIT
        if store_states:
            _normalize_rows(snap, _norm2_rows(snap, dx), out=states[:, j])
    return _Batch(weights, states, flags, norms)


def _in_blocks(n_rows, n_points, block):
    """block(lo, hi) over consecutive row blocks of range(n_rows), concatenated."""
    size = max(1, _BLOCK_AMPLITUDES // n_points)
    parts = [block(lo, min(n_rows, lo + size)) for lo in range(0, max(n_rows, 1), size)]
    if len(parts) == 1:
        return parts[0]
    return _Batch(*(None if f[0] is None else np.concatenate(f) for f in zip(*parts)))


def _schedule(jump_times, taus, times, limits):
    """Factor counts, unitary durations and residuals of per-row jump schedules.

    ``jump_times`` (N, M) holds row r's jump times, increasing and padded
    with inf, and ``taus`` (N, M) the duration of the unitary before each
    jump.  Factor k of row r comes before snapshot j when its jump time is
    at most ``limits[j]``, so a jump at a sample time precedes that
    snapshot.  Returns counts (N, T), the taus of the first K factors, K the
    most factors any row runs, and the residual (N, T), the unitary from a
    row's last jump (or 0) to ``times[j]``.
    """
    counts = np.zeros((jump_times.shape[0], len(limits)), dtype=np.int64)
    for j, lim in enumerate(limits):
        counts[:, j] = np.count_nonzero(jump_times <= lim, axis=1)
    # the time of each row's last jump before snapshot j, 0 before the first
    last = np.take_along_axis(
        np.hstack([np.zeros((len(jump_times), 1)), jump_times]), counts, axis=1)
    residual = np.maximum(0.0, np.asarray(times) - last)
    return counts, taus[:, :int(counts.max(initial=0))], residual


def _snap_steps(sample_times, resolution):
    steps = [int(round(t * resolution)) for t in sample_times]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise InvalidParameterError(
            "sample_times collide after snapping to the integrator mesh; "
            "raise n_substeps_per_unit_time")
    return steps


def _diosi_arrays(phi0, h, p, seed, indices, store_states=True):
    """Diosi spec: every factor lasts 1/R and flows over Wiener cell k at resolution R.

    Returns the engine's _Batch: raw-norm weights, normalized states when
    ``store_states``, boundary flags.  Row i uses exactly the Wiener cells
    of WienerPath(seed, indices[i], R), so single-trajectory and batched
    runs coincide bit for bit.
    """
    res = p.n_substeps_per_unit_time
    dt = 1.0 / res
    _check_flow_budget(phi0.grid, p.lam, dt)
    steps = np.array(_snap_steps(p.sample_times, res), dtype=np.int64)
    indices = list(indices)
    wiener = rngmod.WienerRows(seed, indices, res)

    def block(lo, hi):
        def increments(k0, k1):
            out = np.empty((hi - lo, k1 - k0))
            for r in range(lo, hi):
                wiener.fill(r, k0, out[r - lo])
            return out

        flow = _flow_factor(phi0.grid, p.lam, dt, increments, int(steps.max(initial=0)),
                            hi - lo)
        return _trotter_product(phi0, h, flow, np.tile(steps, (hi - lo, 1)), dt,
                                store_states=store_states)

    return _in_blocks(len(indices), phi0.grid.n_points, block)


def _waiting_times(seed, indices, dt_cell, horizon):
    """Row i's head of ExponentialSequence(seed, i), long enough for T_k to pass horizon.

    A row takes one block of waits, doubled as long as their jump times
    stay at or below the horizon; the rows are padded with inf.
    """
    size = rngmod.EXPONENTIAL_BLOCK
    indices = np.asarray(indices)
    waits = np.empty((indices.size, 0))
    need = np.arange(indices.size)
    while need.size:
        have = waits.shape[1] // size
        grow = max(have, 1)  # blocks to add: one, then as many as there are
        more = np.full((indices.size, grow * size), np.inf)
        for j in range(grow):
            keys = rngmod.philox_keys(seed, indices[need], rngmod.ROLE_JUMP_TIMES, have + j)
            more[need, j * size:(j + 1) * size] = rngmod.fill_rows(
                keys, "standard_exponential", np.empty((need.size, size)))
        waits = np.hstack([waits, more])
        need = need[np.cumsum(waits[need] * dt_cell, axis=1)[:, -1] <= horizon]
    return waits


def _hybrid_arrays(phi0, h, p, seed, indices, store_states=True):
    """Hybrid spec: per-row jump schedules, then the engine over row blocks.

    Row i takes its waiting times X_k from ExponentialSequence(seed, i) (or
    X_k = 1) and its flow increments from the coarse cells of
    WienerPath(seed, i, wiener_resolution); factor k runs when its jump time
    T_{k+1} = T_k + X_{k+1}/mu is at most the sample time (plus 1e-12
    relative slack).  Returns the engine's _Batch with the flashes added:
    row r has the first n_flashes[r] of them, at the jump times, with
    centers (mu / (2 sqrt(lam))) dxi.
    """
    indices = list(indices)
    n_rows = len(indices)
    base = p.wiener_resolution if p.wiener_resolution is not None else p.mu
    wiener = rngmod.WienerRows(seed, indices, base)  # validates the resolution
    ratio = rngmod.coarse_ratio(base, p.mu)
    dt_cell = 1.0 / p.mu
    _check_flow_budget(phi0.grid, p.lam, dt_cell)
    times = np.array(p.sample_times, dtype=float)
    limits = times + 1e-12 * np.maximum(1.0, np.abs(times))
    horizon = limits[-1] if limits.size else 0.0
    if p.deterministic_times:  # X_k = 1, T_k = k / mu
        waits = np.ones((n_rows, int(horizon * p.mu) + 2))
        jump_times = np.tile((np.arange(waits.shape[1]) + 1) * dt_cell, (n_rows, 1))
    else:
        waits = _waiting_times(seed, indices, dt_cell, horizon)
        jump_times = np.cumsum(waits * dt_cell, axis=1)
    counts, taus, residual = _schedule(jump_times, waits * dt_cell, times, limits)
    n_flashes = counts.max(axis=1, initial=0)
    n_factors = taus.shape[1]
    dxis = np.zeros((n_rows, n_factors))
    for r in np.flatnonzero(n_flashes):  # only the cells a row's flows reach
        dxis[r, :n_flashes[r]] = rngmod.coarse_sums(
            wiener.fill(r, 0, np.empty(n_flashes[r] * ratio)), ratio)
    cap = _substep_cap(p.unitary_substep)

    def block(lo, hi):
        flow = _flow_factor(phi0.grid, p.lam, dt_cell, lambda k0, k1: dxis[lo:hi, k0:k1],
                            n_factors, hi - lo, norms=True)
        return _trotter_product(phi0, h, flow, counts[lo:hi], taus[lo:hi], residual[lo:hi],
                                cap, store_states=store_states, flash_norms=True)

    return _in_blocks(n_rows, phi0.grid.n_points, block)._replace(
        flash_times=jump_times[:, :n_factors],
        flash_centers=(p.mu / (2.0 * math.sqrt(p.lam))) * dxis, n_flashes=n_flashes)


def _records(seed, indices, times, grid, batch, record_flow_cells=False):
    """One TrajectoryRecord per row of a _Batch."""
    out = []
    for row, idx in enumerate(indices):
        k = 0 if batch.n_flashes is None else int(batch.n_flashes[row])
        flashes = tuple(map(FlashEvent, *(
            a[row, :k].tolist() for a in (batch.flash_times, batch.flash_centers,
                                          batch.flash_norms)))) if k else ()
        states = () if batch.states is None else tuple(
            WaveFunction(grid, s.copy(), NORMALIZED) for s in batch.states[row])
        out.append(TrajectoryRecord(
            seed=int(seed), index=int(idx), times=times, states=states,
            weights=batch.weights[row].copy(), flashes=flashes,
            boundary_flag=bool(batch.flags[row].any()),
            flow_cells=tuple(range(k)) if record_flow_cells else ()))
    return out


def diosi_trajectory(phi0, h, p, seed, index=0, store_states=True):
    """One diffusion trajectory; deterministic given (seed, index).

    The record stores, at each sample time, the raw squared norm (the
    importance weight under the reference measure) and the normalized
    state.
    """
    recs = diosi_ensemble(phi0, h, p, seed, 1, store_states=store_states,
                          first_index=index)
    return recs[0]


def diosi_ensemble(phi0, h, p, seed, n_trajectories, store_states=True,
                   first_index=0):
    """Batch-integrated ensemble of diffusion trajectories.

    The boundary flag is computed from the batch amplitudes, so weights-only
    runs carry it too.
    """
    if phi0.label != NORMALIZED:
        raise InvalidParameterError("phi0 must be normalized")
    indices = range(first_index, first_index + n_trajectories)
    batch = _diosi_arrays(phi0, h, p, seed, indices, store_states=store_states)
    return _records(seed, indices, p.sample_times, phi0.grid, batch)


def _hybrid_records(phi0, h, p, seed, store_states, lo, hi, record_flow_cells=False):
    """Records of the hybrid trajectories with indices lo .. hi-1, one engine call."""
    if phi0.label != NORMALIZED:
        raise InvalidParameterError("phi0 must be normalized")
    batch = _hybrid_arrays(phi0, h, p, seed, range(lo, hi), store_states=store_states)
    return _records(seed, range(lo, hi), p.sample_times, phi0.grid, batch,
                    record_flow_cells)


def hybrid_trajectory(phi0, h, p, seed, index=0, store_states=True,
                      record_flow_cells=False):
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
    is the same record bit for bit.
    """
    return _hybrid_records(phi0, h, p, seed, store_states, index, index + 1,
                           record_flow_cells)[0]


def hybrid_ensemble(phi0, h, p, seed, n_trajectories, store_states=True,
                    workers=None):
    """Independent hybrid trajectories with indices 0 .. n-1.

    Each worker runs the engine once over a contiguous slice of the
    indices; weights-only runs are cheap and stay in-process.
    """
    from .parallel import run_sliced

    return run_sliced(_hybrid_records, (phi0, h, p, seed, store_states),
                      n_trajectories, workers if store_states else 1)
