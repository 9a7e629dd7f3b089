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
gives back their raw squared norms, which the engine keeps for the
flashes.  At a sample time a snapshot hook records the raw squared norm
(the weight) and, on a copy after the residual unitary, the normalized
state and the boundary mass.

Each spec turns the engine's arrays for one row block into a
``records.Trajectories`` (weights (N, T), states (N, T, n), boundary flags,
and the flashes flattened from the padded (N, K) factor arrays), and the
blocks and worker slices are joined with ``Trajectories.concat``.  That
type is what every simulation entry point returns and what the archive
stores.

``_in_blocks`` maps a block function over the row blocks on
``parallel.engine_threads()`` threads, in contiguous groups of blocks;
numpy and the FFTs release the GIL, so the blocks of one call run on
both cores of a 2-core machine.  A block does array work only: the random
draws a block reads are made before the blocks (the hybrid's flow
increments, the GRW jump times and flash uniforms and normals), except
that a Diosi block reads its Wiener cells chunk by chunk from a
``rng.WienerRows`` of its own, since one reused Philox cannot serve two
threads.  A row's bytes therefore depend neither on the thread count nor
on which thread ran its block, and an error is raised as the serial loop
would raise it: that of the lowest failing block.

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
import threading
from dataclasses import dataclass

import numpy as np

from . import parallel
from . import rng as rngmod
from .errors import InvalidParameterError
from .grid import (
    BOUNDARY_MASS_LIMIT,
    NORMALIZED,
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
from .records import Trajectories

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
    """The Trotter product on one row block of copies of phi0, which must be normalized.

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
    is None).  Returns the (rows, T) weights, the (rows, T, n) states or
    None, the (rows, T) boundary flags of the checks and the (rows, K) raw
    squared norms after factor k (zero past a row's factors) or None.
    """
    if phi0.label != NORMALIZED:
        raise InvalidParameterError("phi0 must be normalized")
    grid = phi0.grid
    rows, n_snap = counts.shape
    n, dx = grid.n_points, grid.dx
    weights = np.empty((rows, n_snap))
    states = np.empty((rows, n_snap, n), dtype=np.complex128) if store_states else None
    flags = np.zeros((rows, n_snap), dtype=bool)
    norms = np.zeros((rows, tau.shape[1])) if flash_norms else None
    if rows == 0:
        return weights, states, flags, norms

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
    return weights, states, flags, norms


def _row_blocks(n_rows, n_points):
    """(lo, hi) of consecutive row blocks of range(n_rows), at least one."""
    size = max(1, _BLOCK_AMPLITUDES // n_points)
    return [(lo, min(n_rows, lo + size)) for lo in range(0, max(n_rows, 1), size)]


def _in_blocks(n_rows, n_points, block):
    """[block(lo, hi) for each row block (lo, hi) of _row_blocks], on the engine threads.

    The blocks are split into contiguous groups, one per thread of
    ``parallel.engine_threads()``; the caller's thread runs the first group
    and the results come back in block order.  ``block`` must do array work
    only, its random draws made before the call or on a generator of its
    own.  A group stops at its first error; once every thread has finished,
    the error of the lowest failing block is raised, the one a serial loop
    would raise.
    """
    spans = _row_blocks(n_rows, n_points)
    n_groups = min(parallel.engine_threads(), len(spans))
    bounds = [len(spans) * g // n_groups for g in range(n_groups + 1)]
    results = [None] * len(spans)
    errors = [None] * n_groups

    def run(g):
        try:
            for b in range(bounds[g], bounds[g + 1]):
                results[b] = block(*spans[b])
        except BaseException as exc:  # raised below, after every thread has finished
            errors[g] = exc

    threads = [threading.Thread(target=run, args=(g,)) for g in range(1, n_groups)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _flat_flashes(n_flashes, times, centers, norms):
    """The flash arguments of a Trajectories from padded (rows, K) arrays.

    Row r keeps its first ``n_flashes[r]`` entries, in row order.
    """
    keep = np.arange(times.shape[1]) < n_flashes[:, None]
    return times[keep], centers[keep], norms[keep], n_flashes


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


def _waiting_times(seed, indices, dt_cell, horizon):
    """Row i's Exp(1) waits in the rng layout, long enough for T_k to pass horizon.

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


def _hybrid_records(phi0, h, p, seed, store_states, lo, hi):
    """Hybrid spec: the Trajectories of indices lo .. hi-1, one engine call.

    Per-row jump schedules, then the engine over row blocks.  Row i takes
    its waiting times X_k from its Exp(1) waits (or X_k = 1) and its flow
    increments from the coarse sums of its Wiener cells at
    wiener_resolution, both in the rng layouts; factor k runs when its
    jump time T_{k+1} = T_k + X_{k+1}/mu is at most the sample time (plus
    1e-12 relative slack).  Row r's flashes are its first n_flashes[r]
    factors, at the jump times, with centers (mu / (2 sqrt(lam))) dxi.
    """
    indices = list(range(lo, hi))
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
    centers = (p.mu / (2.0 * math.sqrt(p.lam))) * dxis
    cap = _substep_cap(p.unitary_substep)

    def block(b0, b1):
        flow = _flow_factor(phi0.grid, p.lam, dt_cell, lambda k0, k1: dxis[b0:b1, k0:k1],
                            n_factors, b1 - b0, norms=True)
        weights, states, flags, norms = _trotter_product(
            phi0, h, flow, counts[b0:b1], taus[b0:b1], residual[b0:b1], cap,
            store_states=store_states, flash_norms=True)
        return Trajectories(seed, phi0.grid, p.sample_times, indices[b0:b1], weights, states,
                            flags.any(axis=1), *_flat_flashes(
                                n_flashes[b0:b1], jump_times[b0:b1, :n_factors],
                                centers[b0:b1], norms))

    return Trajectories.concat(_in_blocks(n_rows, phi0.grid.n_points, block))


def diosi_trajectory(phi0, h, p, seed, index=0, store_states=True):
    """One diffusion trajectory; deterministic given (seed, index).

    The row stores, at each sample time, the raw squared norm (the
    importance weight under the reference measure) and the normalized
    state.
    """
    return diosi_ensemble(phi0, h, p, seed, 1, store_states, index)[0]


def diosi_ensemble(phi0, h, p, seed, n_trajectories, store_states=True,
                   first_index=0):
    """Batch-integrated ensemble of diffusion trajectories, as a Trajectories.

    Every factor lasts 1/R and flows over Wiener cell k at resolution R.
    The rows are the indices first_index .. first_index + n - 1, with
    raw-norm weights, normalized states when ``store_states``, boundary
    flags and no flashes.  Row i flows over exactly its own Wiener cells
    at resolution R (the rng layout), so single-trajectory and batched
    runs coincide bit for bit.  The boundary flag is computed from the
    batch amplitudes, so weights-only runs carry it too.
    """
    res = p.n_substeps_per_unit_time
    dt = 1.0 / res
    _check_flow_budget(phi0.grid, p.lam, dt)
    steps = np.array(_snap_steps(p.sample_times, res), dtype=np.int64)
    indices = list(range(first_index, first_index + n_trajectories))

    def block(lo, hi):
        wiener = rngmod.WienerRows(seed, indices[lo:hi], res)  # one Philox per block

        def increments(k0, k1):
            out = np.empty((hi - lo, k1 - k0))
            for r in range(hi - lo):
                wiener.fill(r, k0, out[r])
            return out

        flow = _flow_factor(phi0.grid, p.lam, dt, increments, int(steps.max(initial=0)),
                            hi - lo)
        weights, states, flags, _ = _trotter_product(
            phi0, h, flow, np.tile(steps, (hi - lo, 1)), dt, store_states=store_states)
        return Trajectories(seed, phi0.grid, p.sample_times, indices[lo:hi], weights, states,
                            flags.any(axis=1))

    return Trajectories.concat(_in_blocks(len(indices), phi0.grid.n_points, block))


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

    Each worker runs the engine once over a contiguous slice of the
    indices; weights-only runs are cheap and stay in-process.
    """
    return parallel.run_sliced(_hybrid_records, (phi0, h, p, seed, store_states),
                               n_trajectories, workers if store_states else 1)
