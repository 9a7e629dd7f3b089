"""The batched Trotter-product engine: batch rows against single runs, against
a literal composition of the grid propagators for all three processes and
against scipy's matrix exponential; row bytes across batches, blocks, engine
threads and BLAS threads; fail-closed parameters; the edge shapes (no rows, no
sample times) and the one boundary-flag rule of weights-only runs."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import (
    DiosiParams,
    Grid,
    GrwParams,
    HamiltonianSpec,
    HybridParams,
    diosi_ensemble,
    diosi_trajectory,
    evolve_unitary,
    gaussian_hit,
    grw_ensemble,
    grw_trajectory,
    hybrid_ensemble,
    hybrid_trajectory,
    make_gaussian_packet,
    sample_flash_center,
)
import collapsim
from collapsim import engine
from collapsim.errors import DegenerateStateError, InvalidParameterError, StepTooLargeError
from collapsim.grid import (
    BOUNDARY_MASS_LIMIT,
    CollapseSpec,
    WaveFunction,
    boundary_mass,
    collapse_flow,
    _unitary_rows,
    cosine_potential,
    hamiltonian_matrix,
    norm2,
    normalize,
)
from collapsim.grw import _grw_records
from collapsim.rng import ROLE_FLASH_NOISE, ROLE_FLASH_POSITION
from reference import jump_times, stream, waits, wiener_cells

GRID = Grid(64, -12.0, 12.0)
# a centred packet, and one started near the edge and pushed towards it
PACKETS = {
    "centre": make_gaussian_packet(GRID, 0.0, 1.0),
    "edge": make_gaussian_packet(GRID, 6.0, 1.0, momentum=6.0),
}
HAMILTONIANS = {
    "zero": HamiltonianSpec.zero(GRID),
    "free": HamiltonianSpec.free(GRID),
    "cos": HamiltonianSpec(GRID, cosine_potential(GRID, 0.5)),
}


def assert_same_record(a, b):
    assert a.index == b.index
    assert a.times == b.times
    assert np.array_equal(a.weights, b.weights)
    assert len(a.states) == len(b.states)
    for s, t in zip(a.states, b.states):
        assert np.array_equal(s.amplitudes, t.amplitudes)
    assert a.flashes == b.flashes
    assert a.boundary_flag == b.boundary_flag


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), first=st.integers(0, 40),
       n=st.integers(1, 9), block_rows=st.sampled_from([1, 2, 3, 5]),
       h_name=st.sampled_from(sorted(HAMILTONIANS)),
       packet=st.sampled_from(sorted(PACKETS)),
       deterministic=st.booleans(), mu=st.sampled_from([4.0, 16.0]),
       store_states=st.booleans(), workers=st.sampled_from([1, 2]),
       threads=st.sampled_from([1, 2, 3]))
def test_batch_row_is_batch_of_one(seed, first, n, block_rows, h_name, packet,
                                   deterministic, mu, store_states, workers, threads):
    # blocks of 1-5 rows make every window straddle block boundaries, and
    # the engine threads take groups of them
    phi, h = PACKETS[packet], HAMILTONIANS[h_name]
    times = (0.0, 0.125, 0.25)
    hp = HybridParams(1.0, mu, 0.25, times, deterministic_times=deterministic,
                      wiener_resolution=64.0)
    dp = DiosiParams(1.0, 64, 0.25, times)
    # GRW at lam = 1 (alpha = 2 lam / mu), with jumps after the last sample time
    gp = GrwParams(mu, 2.0 / mu, 0.3, times)
    with mock.patch.object(engine, "_BLOCK_AMPLITUDES", block_rows * GRID.n_points), \
            mock.patch.object(engine, "engine_threads", lambda workers=None: threads):
        hyb = hybrid_ensemble(phi, h, hp, seed, n, store_states=store_states,
                              workers=workers)
        dio = diosi_ensemble(phi, h, dp, seed, n, store_states=store_states,
                             first_index=first)
        grw = grw_ensemble(phi, h, gp, seed, n, workers=workers)
    for i in range(n):
        assert_same_record(hyb[i], hybrid_trajectory(phi, h, hp, seed, index=i,
                                                     store_states=store_states))
        assert_same_record(dio[i], diosi_trajectory(phi, h, dp, seed, index=first + i,
                                                    store_states=store_states))
        assert_same_record(grw[i], grw_trajectory(phi, h, gp, seed, index=i))


def test_rows_straddling_the_real_block_size():
    grid = Grid(256, -20.0, 20.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    rows = engine._BLOCK_AMPLITUDES // grid.n_points
    hp = HybridParams(1.0, 16.0, 0.25, (0.125, 0.25))
    dp = DiosiParams(1.0, 32, 0.25, (0.125, 0.25))
    gp = GrwParams(16.0, 0.125, 0.25, (0.125, 0.25))
    hyb = hybrid_ensemble(phi, h, hp, 61, rows + 2)
    dio = diosi_ensemble(phi, h, dp, 61, rows + 2)
    grw = grw_ensemble(phi, h, gp, 61, rows + 2)
    for i in range(rows - 2, rows + 2):
        assert_same_record(hyb[i], hybrid_trajectory(phi, h, hp, 61, index=i))
        assert_same_record(dio[i], diosi_trajectory(phi, h, dp, 61, index=i))
        assert_same_record(grw[i], grw_trajectory(phi, h, gp, 61, index=i))


FIELDS = ("indices", "weights", "states", "boundary_flags", "flash_times", "flash_centers",
          "flash_norms", "n_flashes")


def _array_hash(traj):
    return hashlib.sha256(b"".join(
        getattr(traj, name).tobytes() for name in FIELDS if getattr(traj, name) is not None
    )).hexdigest()


COS_GRID = Grid(128, -16.0, 16.0)
COS_PHI = make_gaussian_packet(COS_GRID, 0.0, 1.0)
COS_H = HamiltonianSpec(COS_GRID, cosine_potential(COS_GRID, 0.5))
COS_RUNS = {
    "grw": (lambda n: grw_ensemble(COS_PHI, COS_H, GrwParams(4.0, 0.5, 0.5, (0.125, 0.5)), 81, n),
            lambda i: grw_trajectory(COS_PHI, COS_H, GrwParams(4.0, 0.5, 0.5, (0.125, 0.5)), 81,
                                     index=i)),
    "hybrid": (lambda n: hybrid_ensemble(COS_PHI, COS_H, HybridParams(1.0, 4.0, 0.5, (0.125, 0.5)),
                                         82, n),
               lambda i: hybrid_trajectory(COS_PHI, COS_H,
                                           HybridParams(1.0, 4.0, 0.5, (0.125, 0.5)), 82, index=i)),
}
COS_BLOCK_ROWS = engine._BLOCK_AMPLITUDES // COS_GRID.n_points


@pytest.mark.parametrize("process", sorted(COS_RUNS))
@pytest.mark.parametrize("n", [1, 2, 3, COS_BLOCK_ROWS - 1, COS_BLOCK_ROWS + 1])
def test_cos_rows_do_not_depend_on_batch_block_or_threads(process, n):
    # under a two-term H every unitary is the eigenbasis product: a row's bytes
    # are those of its batch of one, at the real block size and on 1 or 2 threads
    ensemble, single = COS_RUNS[process]
    runs = []
    for threads in (1, 2):
        with mock.patch.object(engine, "engine_threads", lambda workers=None: threads):
            runs.append(ensemble(n))
    one, two = runs
    assert _array_hash(one) == _array_hash(two)
    for i in sorted({0, 1, n - 2, n - 1} & set(range(n))):
        assert_same_record(one[i], single(i))


@pytest.mark.parametrize("n_points", [128, 512])
def test_eigenbasis_rows_do_not_depend_on_the_batch(n_points):
    # batches of 1 to 5 rows at several offsets against one 40-row batch; at
    # n 512 a product of fewer than 4 stacked rows would take another kernel
    grid = Grid(n_points, -16.0, 16.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    rng = np.random.default_rng(n_points)
    amps = rng.standard_normal((40, n_points)) + 1j * rng.standard_normal((40, n_points))
    tau = rng.uniform(0.01, 1.0, 40)
    whole = _unitary_rows(amps.copy(), h, tau)
    for m in range(1, 6):
        for lo in (0, 7, 40 - m):
            got = _unitary_rows(amps[lo:lo + m].copy(), h, tau[lo:lo + m])
            assert got.tobytes() == whole[lo:lo + m].tobytes(), (m, lo)


_BLAS_THREADS_SCRIPT = """
import hashlib
from collapsim import (Grid, GrwParams, HamiltonianSpec, HybridParams, grw_ensemble,
                       hybrid_ensemble, make_gaussian_packet)
from collapsim.grid import cosine_potential
g = Grid(128, -16.0, 16.0)
phi, h = make_gaussian_packet(g, 0.0, 1.0), HamiltonianSpec(g, cosine_potential(g, 0.5))
for t in (grw_ensemble(phi, h, GrwParams(4.0, 0.5, 0.5, (0.25, 0.5)), 83, 300),
          hybrid_ensemble(phi, h, HybridParams(1.0, 4.0, 0.5, (0.25, 0.5)), 84, 300)):
    print(hashlib.sha256(t.states.tobytes() + t.flash_norms.tobytes()
                         + t.flash_centers.tobytes() + t.weights.tobytes()).hexdigest())
"""


def test_ensemble_bytes_do_not_depend_on_the_blas_threads():
    src = os.path.dirname(os.path.dirname(collapsim.__file__))
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out[threads] = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                                      check=True, capture_output=True, text=True).stdout
    assert len(out["1"].split()) == 2 and out["1"] == out["2"]


def run_on_threads(threads, block_rows, run):
    with mock.patch.object(engine, "_BLOCK_AMPLITUDES", block_rows * GRID.n_points), \
            mock.patch.object(engine, "engine_threads", lambda workers=None: threads):
        return run()


ENSEMBLES = {
    "grw": lambda n, store, workers: grw_ensemble(
        PACKETS["edge"], HAMILTONIANS["cos"],
        GrwParams(8.0, 0.25, 0.3, (0.125, 0.25)), 71, n,
        workers=workers),
    "diosi": lambda n, store, workers: diosi_ensemble(
        PACKETS["edge"], HAMILTONIANS["cos"], DiosiParams(1.0, 64, 0.25, (0.125, 0.25)), 72, n,
        store_states=store),
    "hybrid": lambda n, store, workers: hybrid_ensemble(
        PACKETS["edge"], HAMILTONIANS["cos"],
        HybridParams(1.0, 16.0, 0.25, (0.125, 0.25), wiener_resolution=64.0), 73, n,
        store_states=store, workers=workers),
}


@pytest.mark.parametrize("process,workers", [
    ("grw", 1), ("grw", 2), ("diosi", 1), ("hybrid", 1), ("hybrid", 2)])
@pytest.mark.parametrize("n,block_rows", [(1, 2), (2, 1), (5, 2), (7, 2), (9, 2)])
@pytest.mark.parametrize("store_states", [True, False])
def test_engine_threads_give_the_same_arrays(process, workers, n, block_rows, store_states):
    # 1, 2, 3, 4 and 5 blocks: groups of uneven size, and fewer blocks than threads
    run = lambda: ENSEMBLES[process](n, store_states, workers)
    one = run_on_threads(1, block_rows, run)
    for threads in (2, 3):
        got = run_on_threads(threads, block_rows, run)
        for name in FIELDS:
            a, b = getattr(one, name), getattr(got, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_diosi_blocks_draw_on_generators_of_their_own():
    # 1024 cells per row, fetched 64 at a time, one row per block: blocks on
    # different threads read their Wiener cells at the same time, and a
    # generator shared between them would hand a row another row's cells
    p = DiosiParams(1.0, 4096, 0.25, (0.25,))

    def run(threads):
        with mock.patch.object(engine, "_MAX_INCREMENT_ELEMENTS", 64):
            return run_on_threads(threads, 1, lambda: diosi_ensemble(
                PACKETS["centre"], HAMILTONIANS["zero"], p, 75, 6, store_states=False)).weights

    one = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for threads in (2, 3) * 6:
            assert run(threads).tobytes() == one.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_blocks_come_back_in_order_on_every_thread_count():
    # every block runs once and writes its own rows of one array
    for threads in (1, 2, 3, 8):
        rows, runs = np.zeros(11, dtype=np.int64), []

        def block(lo, hi):
            runs.append((lo, hi))
            rows[lo:hi] += np.arange(lo, hi) + 1

        with mock.patch.object(engine, "_BLOCK_AMPLITUDES", 2 * GRID.n_points), \
                mock.patch.object(engine, "engine_threads", lambda workers=None: threads):
            assert engine._in_blocks(11, GRID.n_points, block) is None
        assert sorted(runs) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 11)]
        assert rows.tolist() == list(range(1, 12))


def test_the_lowest_failing_block_raises_after_every_thread_ends():
    # blocks 2 and 4 of 6 fail; block 4 fails first in time, but block 2's
    # error is the one a serial loop raises
    def block(lo, hi):
        if lo == 2:
            time.sleep(0.05)
            raise DegenerateStateError("block 2")
        if lo == 4:
            raise StepTooLargeError("block 4")
        time.sleep(0.01)
        return lo

    before = threading.active_count()
    for threads in (1, 2, 3, 6):
        with mock.patch.object(engine, "_BLOCK_AMPLITUDES", GRID.n_points), \
                mock.patch.object(engine, "engine_threads", lambda workers=None: threads):
            with pytest.raises(DegenerateStateError, match="block 2"):
                engine._in_blocks(6, GRID.n_points, block)
        assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 3])
def test_an_engine_error_in_a_later_block_is_the_serial_error(threads):
    # hybrid rows 3 and 6, in blocks 3 and 6 of 8, overflow their first flow;
    # 2 and 3 threads put them in different groups
    p = HybridParams(1.0, 4.0, 0.5, (0.5,), deterministic_times=True)
    marked = {wiener_cells(74, i, 4.0, 0, 1)[0]: i for i in (3, 6)}
    flow_rows = engine._flow_rows

    def overflowing(amps, grid, lam, dt, dxi, out=None, buf=None):
        for x in dxi:
            if x in marked:
                if marked[x] == 3:
                    time.sleep(0.05)  # row 6 fails first in time
                raise StepTooLargeError(f"row {marked[x]}")
        return flow_rows(amps, grid, lam, dt, dxi, out=out, buf=buf)

    errors = {}
    before = threading.active_count()
    for t in (1, threads):
        with mock.patch.object(engine, "_flow_rows", overflowing):
            with pytest.raises(StepTooLargeError) as info:
                run_on_threads(t, 1, lambda: hybrid_ensemble(
                    PACKETS["centre"], HAMILTONIANS["free"], p, 74, 8, workers=1))
        errors[t] = (type(info.value), str(info.value))
        assert threading.active_count() == before
    assert errors[1] == errors[threads] == (StepTooLargeError, "row 3")


@pytest.mark.parametrize("chunk_elements", [5 * 7, 3 * 4096 * 5 + 5 * 9])
def test_diosi_wiener_chunks_ending_inside_blocks(chunk_elements):
    # the flow fetches 7 cells per row at a time, so chunks start and end
    # inside the 4096-cell Wiener blocks (12297 is cut to 3 whole blocks);
    # each row must still take the cells of its own Wiener path
    phi = PACKETS["centre"]
    p = DiosiParams(1.0, 4096, 3.0, (1.0, 3.0))
    whole = diosi_ensemble(phi, HAMILTONIANS["cos"], p, 29, 5, store_states=False)
    with mock.patch.object(engine, "_MAX_INCREMENT_ELEMENTS", chunk_elements):
        chunked = diosi_ensemble(phi, HAMILTONIANS["cos"], p, 29, 5, store_states=False)
        pure = diosi_ensemble(phi, HAMILTONIANS["zero"], p, 29, 5, store_states=False)
    for a, b in zip(whole, chunked):
        assert_same_record(a, b)
    # with H = 0 the product of flows is exp(x xi_t - t x^2), xi_t the path's sum
    x = GRID.x
    for i, rec in enumerate(pure):
        xi = float(wiener_cells(29, i, 4096, 0, 3 * 4096).sum())
        want = np.sum(np.abs(phi.amplitudes * np.exp(x * xi - 3.0 * x * x)) ** 2) * GRID.dx
        assert rec.weights[-1] == pytest.approx(want, rel=1e-9)


def _expm_unitary(psi, h, tau):
    """exp(-i tau H) psi through scipy's dense matrix exponential."""
    u = scipy.linalg.expm(-1j * tau * hamiltonian_matrix(h))
    return WaveFunction(psi.grid, u @ psi.amplitudes, psi.label)


# the engine's own single-state unitary, and an oracle apart from it
UNITARIES = {"evolve_unitary": evolve_unitary, "expm": _expm_unitary}


@pytest.mark.parametrize("unitary", sorted(UNITARIES))
def test_engine_matches_literal_composition(unitary):
    # each row rebuilt one factor at a time from a unitary and collapse_flow,
    # the snapshots through the residual unitary from the last factor
    evolve = UNITARIES[unitary]
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    lam, mu, seed = 1.0, 4.0, 62
    times = (0.3, 0.7)
    p = HybridParams(lam, mu, 0.7, times)
    recs = hybrid_ensemble(phi, h, p, seed, 6)
    c = CollapseSpec(lam)
    residuals = []
    for i, rec in enumerate(recs):
        xs = waits(seed, i, len(rec.flashes) + 1)
        cells = wiener_cells(seed, i, mu, 0, len(rec.flashes))
        state, t_k, k = phi, 0.0, 0
        for j, t in enumerate(times):
            while t_k + xs[k] / mu <= t:
                state = evolve(state, h, xs[k] / mu)
                state = collapse_flow(state, c, cells[k], 1.0 / mu)
                assert rec.flashes[k].pre_collapse_norm2 == pytest.approx(
                    norm2(state), rel=1e-12)
                t_k += xs[k] / mu
                k += 1
            assert rec.weights[j] == pytest.approx(norm2(state), rel=1e-12)
            snap = normalize(evolve(state, h, t - t_k))
            assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
            residuals.append(t - t_k)
        assert len(rec.flashes) == k
    assert min(residuals) > 0  # every snapshot took a residual unitary


@pytest.mark.parametrize("unitary", sorted(UNITARIES))
def test_grw_matches_literal_composition(unitary):
    # each row rebuilt jump by jump from a unitary, the sampler and the hit;
    # the packet runs towards the edge, so some rows carry the boundary flag
    evolve = UNITARIES[unitary]
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 9.0, 1.0, momentum=2.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    mu, alpha, seed = 4.0, 0.5, 64
    times = (0.3, 0.7)
    p = GrwParams(mu, alpha, 1.0, times)
    recs = grw_ensemble(phi, h, p, seed, 8)
    # without sample times only the hits can set the flag
    bare = grw_ensemble(phi, h, GrwParams(mu, alpha, 1.0), seed, 8)
    flags, hit_flags = [], []
    for i, rec in enumerate(recs):
        jumps = jump_times(seed, i, mu, 1.0)
        pos = stream(seed, i, ROLE_FLASH_POSITION)
        noise = stream(seed, i, ROLE_FLASH_NOISE)
        assert [f.time for f in rec.flashes] == jumps.tolist()
        state, t_k, j = phi, 0.0, 0
        masses, hit_masses = [], [0.0]
        for k, t_jump in enumerate(jumps):
            while j < len(times) and times[j] < t_jump:  # snapshots before this jump
                snap = normalize(evolve(state, h, times[j] - t_k))
                assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
                masses.append(boundary_mass(snap))
                j += 1
            state = evolve(state, h, t_jump - t_k)
            y = sample_flash_center(state, alpha, pos, noise)
            assert rec.flashes[k].center == pytest.approx(y, abs=1e-12)
            hit = gaussian_hit(state, y, alpha)
            assert rec.flashes[k].pre_collapse_norm2 == pytest.approx(norm2(hit), rel=1e-12)
            state, t_k = normalize(hit), t_jump
            hit_masses.append(boundary_mass(state))
        for j in range(j, len(times)):
            snap = normalize(evolve(state, h, times[j] - t_k))
            assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
            masses.append(boundary_mass(snap))
        assert np.all(rec.weights == 1.0)
        flags.append(rec.boundary_flag)
        hit_flags.append(bare[i].boundary_flag)
        assert rec.boundary_flag == (max(masses + hit_masses) > BOUNDARY_MASS_LIMIT)
        assert bare[i].boundary_flag == (max(hit_masses) > BOUNDARY_MASS_LIMIT)
        assert bare[i].flashes == rec.flashes
    assert any(f.time > times[-1] for r in recs for f in r.flashes)  # jumps past the last
    assert any(flags) and not all(flags) and any(hit_flags)


def test_grw_jump_at_a_sample_time_comes_before_the_snapshot():
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h0 = HamiltonianSpec.zero(grid)
    alpha, seed = 0.5, 65
    t_hit = jump_times(seed, 0, 4.0, 1.0)[0]
    rec = grw_trajectory(phi, h0, GrwParams(4.0, alpha, 1.0, (float(t_hit),)), seed)
    after = normalize(gaussian_hit(phi, rec.flashes[0].center, alpha))
    assert np.max(np.abs(rec.states[0].amplitudes - after.amplitudes)) <= 1e-12


def test_grw_state_does_not_depend_on_other_sample_times():
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    alone = GrwParams(4.0, 0.5, 1.0, (1.0,))
    among = GrwParams(4.0, 0.5, 1.0, (0.3, 0.6, 1.0))
    for seed in range(20):
        a = grw_trajectory(phi, h, alone, seed)
        b = grw_trajectory(phi, h, among, seed)
        assert a.flashes == b.flashes
        assert np.array_equal(a.state_at(1.0).amplitudes, b.state_at(1.0).amplitudes)


@pytest.mark.parametrize("make", [
    lambda: DiosiParams(float("nan"), 64, 1.0),
    lambda: DiosiParams(float("inf"), 64, 1.0),
    lambda: DiosiParams(1.0, 64, float("nan")),
    lambda: DiosiParams(1.0, 64, float("inf")),
    lambda: HybridParams(float("nan"), 4.0, 1.0),
    lambda: HybridParams(1.0, float("nan"), 1.0),
    lambda: HybridParams(1.0, float("inf"), 1.0),
    lambda: HybridParams(1.0, 4.0, float("inf")),
    lambda: GrwParams(float("inf"), 0.5, 1.0),
    lambda: GrwParams(float("nan"), 0.5, 1.0),
    lambda: GrwParams(4.0, float("nan"), 1.0),
    lambda: GrwParams(4.0, float("inf"), 1.0),
    lambda: GrwParams(4.0, 0.5, float("nan")),
    lambda: DiosiParams(1.0, 64, 1.0, (float("nan"),)),
    lambda: DiosiParams(1.0, 64, 1.0, (0.5, float("inf"))),
    lambda: HybridParams(1.0, 4.0, 1.0, (float("nan"),)),
    lambda: HybridParams(1.0, 4.0, 1.0, (float("-inf"), 0.5)),
    lambda: GrwParams(4.0, 0.5, 0.5, (float("nan"),)),
    lambda: GrwParams(4.0, 0.5, 0.5, (0.25, float("nan"))),
], ids=[
    "diosi-lam-nan", "diosi-lam-inf", "diosi-tmax-nan", "diosi-tmax-inf",
    "hybrid-lam-nan", "hybrid-mu-nan", "hybrid-mu-inf", "hybrid-tmax-inf",
    "grw-mu-inf", "grw-mu-nan", "grw-alpha-nan", "grw-alpha-inf", "grw-tmax-nan",
    "diosi-time-nan", "diosi-time-inf", "hybrid-time-nan", "hybrid-time-minus-inf",
    "grw-time-nan", "grw-second-time-nan",
])
def test_non_finite_or_non_positive_parameter_fails_closed(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("packet,flagged", [("edge", True), ("centre", False)])
def test_weights_only_diosi_keeps_boundary_flag(packet, flagged):
    # weak collapse: the pushed packet reaches the edge on every trajectory
    phi, h = PACKETS[packet], HAMILTONIANS["free"]
    p = DiosiParams(0.1, 64, 0.5, (0.25, 0.5))
    full = diosi_ensemble(phi, h, p, 63, 20)
    bare = diosi_ensemble(phi, h, p, 63, 20, store_states=False)
    assert [r.boundary_flag for r in bare] == [r.boundary_flag for r in full]
    assert all(r.boundary_flag is flagged for r in bare)



# the three processes at lam = 0.1 (alpha = 2 lam / mu) up to t_max = 0.5, with
# and without states: weak collapse, so the pushed packet reaches the edge
EDGE_RUNS = {
    "diosi": lambda times, n, store=True: diosi_ensemble(
        PACKETS["edge"], HAMILTONIANS["cos"], DiosiParams(0.1, 64, 0.5, times), 74, n,
        store_states=store),
    "hybrid": lambda times, n, store=True: hybrid_ensemble(
        PACKETS["edge"], HAMILTONIANS["cos"], HybridParams(0.1, 8.0, 0.5, times), 74, n,
        store_states=store),
    "grw": lambda times, n, store=True: _grw_records(
        PACKETS["edge"], HAMILTONIANS["cos"], GrwParams(8.0, 0.025, 0.5, times), 74, 0, n,
        store_states=store),
}


@pytest.mark.parametrize("process", sorted(EDGE_RUNS))
@pytest.mark.parametrize("times", [(), (0.125, 0.25)], ids=["no-times", "two-times"])
@pytest.mark.parametrize("n", [0, 6])
def test_edge_shapes(process, times, n):
    traj = EDGE_RUNS[process](times, n)
    assert traj.times == times and traj.indices.tolist() == list(range(n))
    assert traj.weights.shape == (n, len(times))
    assert traj.states.shape == (n, len(times), GRID.n_points)
    assert traj.boundary_flags.shape == traj.n_flashes.shape == (n,)
    assert all(a.shape == (traj.n_flashes.sum(),)
               for a in (traj.flash_times, traj.flash_centers, traj.flash_norms))
    flashes = [[f.time for f in row.flashes] for row in traj]
    if process == "grw":
        # weights exactly 1 and no t_max column, but every jump up to t_max is a flash
        assert np.all(traj.weights == 1.0)
        assert flashes == [jump_times(74, i, 8.0, 0.5).tolist() for i in range(n)]
        assert (traj.n_flashes.sum() > 0) == (n > 0)
    elif process == "hybrid":
        # flashes up to the last sample time only: none without sample times
        assert flashes == [jump_times(74, i, 8.0, times[-1]).tolist() if times else []
                           for i in range(n)]
    else:
        assert traj.n_flashes.sum() == 0


@pytest.mark.parametrize("process", sorted(EDGE_RUNS))
def test_weights_only_rows_follow_the_one_flag_rule(process):
    # a flag comes from every snapshot state that is formed and from the factor:
    # Diosi forms its snapshots on the batch, a weights-only hybrid row forms
    # none, and a weights-only GRW row keeps the flags of its hits
    times = (0.25, 0.5)
    full, bare = EDGE_RUNS[process](times, 12), EDGE_RUNS[process](times, 12, False)
    assert any(full.boundary_flags)
    if process == "diosi":
        assert np.array_equal(bare.boundary_flags, full.boundary_flags)
    elif process == "hybrid":
        assert not any(bare.boundary_flags)
    else:
        assert any(bare.boundary_flags)
        assert np.array_equal(bare.boundary_flags, EDGE_RUNS[process]((), 12).boundary_flags)
    assert np.array_equal(bare.weights, full.weights)
