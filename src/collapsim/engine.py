"""The stochastic Trotter product: one engine function for every process.

The paper's stochastic Trotter formula is an alternating product of
unitary factors exp(-i tau H) and multiplicative collapse factors.
``_records`` applies it to a batch of trajectories held as an (N, n)
amplitude array, worked through in row blocks of about 2^14 amplitudes.
It allocates the call's arrays once (weights (N, T), states (N, T, n),
boundary flags (N,) and the padded (N, K) flash norms); each row block
writes its own rows of them, and the flashes are flattened once, after
the blocks, into the one ``records.Trajectories`` of the call.  That type
is what every simulation entry point returns and what the archive stores.

A process is a clock times a factor.  The clock is (jump_times, tau,
counts, residual): each row's unitary durations tau_r, each applied
exactly by ``grid._unitary_rows`` (the eigenbasis product of the dense H
when V and the kinetic term are both present, one phase step otherwise),
its number of factors before each sample time and its residual unitary
up to it.  The Diosi clock alone shares one duration 1/R between all
factors and rows; its unitary is one split step with shared phases, the
second-order integrator of its equation.  The factor is one function,
``factor(b0, b1, flags) -> step``: for the rows b0 .. b1-1 of a block and
the block's slice of the call's boundary flags it gives the step that
acts in place on the evolved rows of factor k, may raise their flags and
gives back their raw squared norms (for the flashes).  The (N, K) flash
centers belong to the spec, which passes them to ``_records`` (the GRW
step fills its rows of them).  At a sample time the engine records the
raw squared norm (the weight, or 1) and, on a copy after the residual
unitary, the normalized state.  One flag rule holds for all processes: a
row's boundary flag is raised by every snapshot state that is formed,
and by its factor.  The two jump processes share one clock,
``_jump_schedule``, as in the paper: Exp(1) waits X_k, jump times
T_k = (X_1 + ... + X_k) / mu; the collapse flow over mesh cells, the
step of the Diosi and hybrid factors, is ``_flow_step``.

``_in_blocks`` runs the block function once per row block on
``engine_threads(workers)`` threads, in contiguous groups of blocks: the
usable cores (``os.sched_getaffinity``), capped at ``workers`` when it is
given.  numpy, the FFTs and the GEMMs release the GIL, so the blocks of
one call run on both cores of a 2-core machine.  There is no process
pool: every ensemble is one engine call in the caller's process, and
worker processes, each with its own BLAS threads, would oversubscribe the
cores that OpenBLAS already spreads the eigenbasis GEMMs over.  A block
does array work only: the random draws a block reads are made before the
blocks (the jump schedules, the hybrid's flow increments, the GRW flash
uniforms and normals), except that a Diosi block reads its Wiener cells
chunk by chunk from a ``rng.WienerRows`` of its own, whose key cache is
not shared between threads.  A Wiener read fetches a range of cells for
all of its rows in one ``WienerRows.fill``; no spec loops over rows to
draw them.  A row's bytes therefore depend neither on the thread count
nor on which thread ran its block, and an error is raised as the serial
loop would raise it: that of the lowest failing block.

The row operations themselves are defined once, in ``grid``:
``_unitary_rows``, ``_flow_rows``, ``_norm2_rows`` and ``_normalize_rows``
(the GRW hit adds ``_hit_rows``).  The single-state propagators there are
the same operations on a batch of one.  Every operation acts row by row
(elementwise products, FFTs along the last axis, GEMMs whose rows are the
batch's rows, per-row sums and per-row random streams), so a row's bytes
do not depend on its batch or its block, and a single trajectory is a
batch of one.  The processes are specs over ``_records``: Diosi and the
hybrid in ``diosi``, GRW in ``grw``.
"""

import os
import threading

import numpy as np

from . import rng as rngmod
from .errors import InvalidParameterError
from .grid import (
    BOUNDARY_MASS_LIMIT,
    NORMALIZED,
    _boundary_masses,
    _flow_rows,
    _norm2_rows,
    _normalize_rows,
    _phasors,
    _unitary_rows,
)
from .records import Trajectories

# Amplitudes per row block (256 KiB of complex128), so that a block's
# working arrays stay in cache: 64 rows at n = 256.
_BLOCK_AMPLITUDES = 1 << 14

# Wiener increments a block holds at once (32 MB of float64).
_MAX_INCREMENT_ELEMENTS = 1 << 22


def engine_threads(workers=None):
    """Threads for the engine's row blocks: the usable cores, at most ``workers``
    when it is given.  Results do not depend on it, only wall time.

    A ``workers`` below 1 raises InvalidParameterError.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    if workers is None:
        return cores
    if not workers >= 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers!r}")
    return min(cores, int(workers))


def _flow_step(grid, lam, dt, increments, n_cells, rows, flashes=False):
    """The exact collapse flow over mesh cells of length dt, as the step of a block's factor.

    Step k applies ``grid._flow_rows`` to row r with dxi
    ``increments(k0, k1)[r, k - k0]``, fetched for cells k0 <= k < k1 at
    most ``_MAX_INCREMENT_ELEMENTS`` at a time and never past ``n_cells``.
    It returns the raw squared norms after the flow when its rows have
    ``flashes``, else None; the flow raises no flag of its own.
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
        return _norm2_rows(amps, grid.dx) if flashes else None

    return flow


def _records(phi0, h, seed, indices, times, clock, factor, centers=None, store_states=True,
             workers=None, unit_weights=False):
    """The Trajectories of rows ``indices``: the Trotter product of a clock and a factor.

    Every process is this product on copies of phi0, which must be
    normalized, worked through in the row blocks of ``_in_blocks``; each
    block writes its own rows of the call's weights, states, boundary flags
    and flash norms.  The ``clock`` is (jump_times, tau, counts, residual),
    as ``_jump_schedule`` returns it.  Row r applies factors k = 0, 1, ...:
    the unitary of duration tau (a float for every factor of every row,
    taken as one split step with the shared phasors, one row of
    ``grid._phasors`` that broadcasts over the block; else ``tau[r, k]``,
    exactly), then the collapse step.  Snapshot j follows the first
    ``counts[r, j]`` factors (counts non-decreasing in j); the columns of
    counts past ``times`` run their factors and take no snapshot.  At
    snapshot j the weight is the raw squared norm (1 with
    ``unit_weights``), and the state is normalized after the unitary of
    duration ``residual[r, j]`` on a copy, or on the batch itself when
    residual is None.  With a residual and without ``store_states`` no
    state is formed.

    ``factor(b0, b1, flags)`` gives the step of rows b0 .. b1-1, whose
    boundary flags are ``flags``, the block's slice of the call's:
    ``step(amps, act, k)`` acts in place on the evolved rows ``act`` of the
    block (a slice or an index array), may raise their flags, and returns
    their raw squared norms, or None when the process has no flashes.

    One flag rule for every process: a row's boundary flag is raised by
    every snapshot state that is formed, and by the factor.  When
    ``jump_times`` is not None, row r's flashes are its first max_j
    counts[r, j] factors, at ``jump_times[r]``, with the (N, K) flash
    ``centers`` the spec owns (its step may fill them) and the norms its
    step returns; they are flattened once, after the blocks.
    """
    if phi0.label != NORMALIZED:
        raise InvalidParameterError("phi0 must be normalized")
    grid = phi0.grid
    jump_times, tau, counts, residual = clock
    shared = isinstance(tau, float)
    phases = None
    if shared:
        one = np.array([tau])
        phases = (None if h.potential_is_zero else _phasors(one, h.potential),
                  _phasors(one, grid.k2, even=True) if h.kinetic else None)
    n_rows, n_times = len(indices), len(times)
    weights = np.ones((n_rows, n_times)) if unit_weights else np.empty((n_rows, n_times))
    states = np.empty((n_rows, n_times, grid.n_points), np.complex128) if store_states else None
    flags = np.zeros(n_rows, dtype=bool)
    norms = None if jump_times is None else np.zeros(tau.shape)

    def block(b0, b1):
        rows, cnt, flag = b1 - b0, counts[b0:b1], flags[b0:b1]
        step = factor(b0, b1, flag)
        taus = tau if shared else tau[b0:b1]
        res = None if residual is None else residual[b0:b1]
        amps = np.tile(phi0.amplitudes, (rows, 1))
        done = np.zeros(rows, dtype=np.int64)
        for j in range(cnt.shape[1] if rows else 0):
            target = cnt[:, j]
            lockstep = done.min() == done.max() and target.min() == target.max()
            for k in range(int(done.min()), int(target.max())):
                act = slice(None) if lockstep else np.flatnonzero((done <= k) & (k < target))
                sub = _unitary_rows(amps[act], h, taus if shared else taus[act, k], phases)
                got = step(sub, act, k)
                if norms is not None:
                    norms[b0:b1][act, k] = got
                if lockstep:
                    amps = sub
                else:
                    amps[act] = sub
            done = target
            if j >= n_times:
                continue
            if not unit_weights:
                weights[b0:b1, j] = _norm2_rows(amps, grid.dx)
            if res is None or store_states:
                snap = amps if res is None else _unitary_rows(amps.copy(), h, res[:, j])
                flag |= _boundary_masses(snap, grid) > BOUNDARY_MASS_LIMIT
                if store_states:
                    _normalize_rows(snap, _norm2_rows(snap, grid.dx), out=states[b0:b1, j])

    _in_blocks(n_rows, grid.n_points, block, workers)
    flashes = ()
    if jump_times is not None:
        n_flashes = counts.max(axis=1, initial=0)
        keep = np.arange(norms.shape[1]) < n_flashes[:, None]
        flashes = jump_times[keep], centers[keep], norms[keep], n_flashes
    return Trajectories(seed, grid, times, indices, weights, states, flags, *flashes)


def _row_blocks(n_rows, n_points):
    """(lo, hi) of consecutive row blocks of range(n_rows), at least one."""
    size = max(1, _BLOCK_AMPLITUDES // n_points)
    return [(lo, min(n_rows, lo + size)) for lo in range(0, max(n_rows, 1), size)]


def _in_blocks(n_rows, n_points, block, workers=None):
    """Run block(lo, hi) once for each row block (lo, hi) of _row_blocks, on the engine threads.

    The blocks are split into contiguous groups, one per thread of
    ``engine_threads(workers)``; the caller's thread runs the first group.
    A block hands back its results by writing its own rows of the caller's
    arrays, so no two blocks write the same element.  ``block`` must do
    array work only, its random draws made before the call or on a
    generator of its own.  A group stops at its first error; once every
    thread has finished, the error of the lowest failing block is raised,
    the one a serial loop would raise.
    """
    spans = _row_blocks(n_rows, n_points)
    n_groups = min(engine_threads(workers), len(spans))
    bounds = [len(spans) * g // n_groups for g in range(n_groups + 1)]
    errors = [None] * n_groups

    def run(g):
        try:
            for b in range(bounds[g], bounds[g + 1]):
                block(*spans[b])
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


def _jump_schedule(seed, indices, mu, times, horizon, deterministic):
    """The Poisson clock of the jump processes: per-row jump times and engine schedule.

    Row i waits X_1, X_2, ...: its Exp(1) waits in the rng layout
    (``_waiting_times``), or X_k = 1 when ``deterministic``.  Its jump times
    are T_k = X_1 / mu + ... + X_k / mu, the running sum of X_l * (1/mu)
    (k * (1/mu) when deterministic), and the unitary before jump k lasts
    X_k * (1/mu).  The sample ``times`` and the ``horizon`` both carry a
    1e-12 relative slack: jump k comes before snapshot j when T_k <=
    times[j] + 1e-12 max(1, times[j]), so a jump at a sample time (the
    deterministic k * (1/mu) at k / mu included) precedes that snapshot, and
    the waits run until T_k passes the horizon so padded.  Returns
    (jump_times, taus, counts, residual): the (N, K) jump times and unitary
    durations of the first K factors, K the most factors any row runs; the
    (N, T) factor counts before each snapshot; and the (N, T) residual
    unitary from a row's last jump (or 0) to times[j].
    """
    dt_cell = 1.0 / mu
    times = np.asarray(times, dtype=float)
    limits = times + 1e-12 * np.maximum(1.0, np.abs(times))
    horizon = horizon + 1e-12 * max(1.0, abs(horizon))
    if deterministic:
        waits = np.ones((len(indices), int(horizon * mu) + 2))
        jump_times = np.tile((np.arange(waits.shape[1]) + 1) * dt_cell, (len(indices), 1))
    else:
        waits = _waiting_times(seed, indices, dt_cell, horizon)
        jump_times = np.cumsum(waits * dt_cell, axis=1)
    counts = np.zeros((len(indices), len(limits)), dtype=np.int64)
    for j, lim in enumerate(limits):
        counts[:, j] = np.count_nonzero(jump_times <= lim, axis=1)
    # the time of each row's last jump before snapshot j, 0 before the first
    last = np.take_along_axis(
        np.hstack([np.zeros((len(indices), 1)), jump_times]), counts, axis=1)
    k = int(counts.max(initial=0))
    return jump_times[:, :k], waits[:, :k] * dt_cell, counts, np.maximum(0.0, times - last)
