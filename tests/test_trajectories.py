"""Trajectories, the one array type of an ensemble: slices of rows against one
call, the archive round trip, reweight_ensemble against per-row stacking,
the row views, and the worker count that caps the engine's threads."""

import threading
from unittest import mock

import numpy as np
import pytest

from collapsim import (
    DiosiParams,
    Grid,
    GrwParams,
    HamiltonianSpec,
    HybridParams,
    diosi_ensemble,
    ensemble_density,
    grw_ensemble,
    hybrid_ensemble,
    make_gaussian_packet,
    reweight_ensemble,
)
from collapsim import engine
from collapsim.archive import read_archive, write_archive
from collapsim.config import RunConfig
from collapsim.diosi import _hybrid_records
from collapsim.errors import ArchiveError, InvalidParameterError
from collapsim.grid import cosine_potential, position_moments
from collapsim.grw import _grw_records
from collapsim.master import ensemble_density_se
from collapsim.records import Trajectories, WeightedEnsemble

GRID = Grid(64, -12.0, 12.0)
PHI = make_gaussian_packet(GRID, 0.0, 1.0)
H = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
TIMES = (0.125, 0.25)
GRW = GrwParams(4.0, 0.5, 0.3, TIMES)
HYBRID = HybridParams(1.0, 4.0, 0.25, TIMES, wiener_resolution=64.0)
CFG = RunConfig.from_text("model = grw\nseed = 7\nmu = 4\nalpha = 0.5\nt_max = 0.3\n"
                          "sample_times = 0.125, 0.25\nn_points = 64\n")
FIELDS = ("indices", "weights", "states", "boundary_flags", "flash_times", "flash_centers",
          "flash_norms", "n_flashes")


def assert_same_bytes(a, b):
    assert (a.seed, a.grid, a.times) == (b.seed, b.grid, b.times)
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


SLICES = {
    "grw": lambda lo, hi: _grw_records(PHI, H, GRW, 7, lo, hi),
    "hybrid": lambda lo, hi: _hybrid_records(PHI, H, HYBRID, 7, True, lo, hi),
}


def rows_of(traj, lo, hi):
    """Rows lo .. hi-1 of traj as a Trajectories, its flashes split by n_flashes."""
    starts = np.concatenate([[0], np.cumsum(traj.n_flashes)])
    flashes = (a[starts[lo]:starts[hi]] for a in (
        traj.flash_times, traj.flash_centers, traj.flash_norms))
    return Trajectories(traj.seed, traj.grid, traj.times, traj.indices[lo:hi],
                        traj.weights[lo:hi], traj.states[lo:hi], traj.boundary_flags[lo:hi],
                        *flashes, traj.n_flashes[lo:hi])


@pytest.mark.parametrize("process", sorted(SLICES))
def test_joined_slices_are_one_call(process):
    # blocks of 3 rows inside each slice; the slices [0, 2) and [2, 12) have
    # different flash widths, and both hold rows without flashes
    spans = (0, 2), (2, 12)
    with mock.patch.object(engine, "_BLOCK_AMPLITUDES", 3 * GRID.n_points):
        whole = SLICES[process](0, 12)
        head, tail = parts = [SLICES[process](lo, hi) for lo, hi in spans]
    assert head.n_flashes.max() != tail.n_flashes.max()
    assert 0 in head.n_flashes and 0 in tail.n_flashes
    for (lo, hi), part in zip(spans, parts):
        assert_same_bytes(part, rows_of(whole, lo, hi))


def test_rows_are_views_of_the_arrays():
    traj = SLICES["hybrid"](0, 12)
    assert len(traj) == 12 and len(list(traj)) == 12
    starts = np.concatenate([[0], np.cumsum(traj.n_flashes)])
    for i, row in enumerate(traj):
        assert row.index == traj.indices[i] and row.boundary_flag == traj.boundary_flags[i]
        assert np.shares_memory(row.weights, traj.weights)
        assert [s.amplitudes.tobytes() for s in row.states] == [
            a.tobytes() for a in traj.states[i]]
        assert [(f.time, f.center, f.pre_collapse_norm2) for f in row.flashes] == list(zip(
            *(a[starts[i]:starts[i + 1]].tolist()
              for a in (traj.flash_times, traj.flash_centers, traj.flash_norms))))
    assert traj[-1].index == 11
    with pytest.raises(IndexError):
        traj[12]


def test_arrays_that_disagree_are_rejected():
    traj = SLICES["grw"](0, 4)
    with pytest.raises(InvalidParameterError):
        Trajectories(7, GRID, TIMES, traj.indices, traj.weights[:, :1], traj.states,
                     traj.boundary_flags)
    with pytest.raises(InvalidParameterError):
        Trajectories(7, GRID, TIMES, traj.indices, traj.weights, traj.states,
                     traj.boundary_flags, traj.flash_times[1:], traj.flash_centers[1:],
                     traj.flash_norms[1:], traj.n_flashes)
    with pytest.raises(InvalidParameterError):
        Trajectories(7, GRID, TIMES, traj.indices, traj.weights, traj.states[:, :, 1:],
                     traj.boundary_flags)


class TestArchiveRoundTrip:
    def test_engine_trajectories(self, tmp_path):
        traj = SLICES["grw"](0, 12)
        first, second = tmp_path / "a.cldn", tmp_path / "b.cldn"
        write_archive(first, CFG, traj)
        back = read_archive(first, expected_config=CFG).records
        want = {name: getattr(traj, name) for name in FIELDS}
        want["states"] = traj.states.astype(np.complex64)
        for name in FIELDS:
            assert np.array_equal(getattr(back, name), want[name]), name
        assert (back.seed, back.grid, back.times) == (traj.seed, traj.grid, traj.times)
        write_archive(second, CFG, back)
        assert first.read_bytes() == second.read_bytes()

    def test_no_trajectories(self, tmp_path):
        empty = SLICES["hybrid"](3, 3)
        path = tmp_path / "a.cldn"
        write_archive(path, CFG, empty)
        back = read_archive(path).records
        assert len(back) == 0 and back.times == TIMES and back.states.shape == (0, 2, 64)
        write_archive(tmp_path / "b.cldn", CFG, back)
        assert path.read_bytes() == (tmp_path / "b.cldn").read_bytes()

    def test_weights_only_run_is_refused(self, tmp_path):
        p = DiosiParams(1.0, 64, 0.25, TIMES)
        path = tmp_path / "a.cldn"
        with pytest.raises(ArchiveError, match="states"):
            write_archive(path, CFG, diosi_ensemble(PHI, H, p, 7, 5, store_states=False))
        assert not path.exists()


def _stacked(traj, t):
    """The ensemble at t stacked one row at a time, as contiguous arrays."""
    return WeightedEnsemble(t, traj.grid, np.array([r.state_at(t).amplitudes for r in traj]),
                            np.array([r.weight_at(t) for r in traj]))


@pytest.mark.parametrize("source", ["diosi", "hybrid", "archive"])
def test_reweight_is_the_per_row_stack(source, tmp_path):
    if source == "diosi":
        traj = diosi_ensemble(PHI, H, DiosiParams(1.0, 64, 0.25, TIMES), 7, 30)
    elif source == "hybrid":
        traj = hybrid_ensemble(PHI, H, HYBRID, 7, 30)
    else:
        write_archive(tmp_path / "a.cldn", CFG, hybrid_ensemble(PHI, H, HYBRID, 7, 30))
        traj = read_archive(tmp_path / "a.cldn").records
    for t in traj.times:
        got, want = reweight_ensemble(traj, t), _stacked(traj, t)
        assert got.amplitudes.dtype == want.amplitudes.dtype
        assert np.array_equal(got.amplitudes, want.amplitudes)
        assert np.array_equal(got.weights, want.weights)
        # the strided column gives the bits of the contiguous stack
        assert ensemble_density(got).entries.tobytes() == ensemble_density(want).entries.tobytes()
        assert ensemble_density_se(got).tobytes() == ensemble_density_se(want).tobytes()
        for a, b in zip(position_moments(got.amplitudes, GRID),
                        position_moments(want.amplitudes, GRID)):
            assert a.tobytes() == b.tobytes()


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -5])
    def test_count_below_one_is_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            engine.engine_threads(workers)
        with pytest.raises(InvalidParameterError, match="workers"):
            hybrid_ensemble(PHI, H, HYBRID, 7, 4, workers=workers)

    def test_pool_of_two_is_one_call(self):
        assert_same_bytes(hybrid_ensemble(PHI, H, HYBRID, 7, 9, workers=2),
                          SLICES["hybrid"](0, 9))


# eight rows of each process, on the engine's default threads or capped at ``workers``
BLOCK_RUNS = {
    "diosi": lambda workers=None: diosi_ensemble(PHI, H, DiosiParams(1.0, 64, 0.25, TIMES), 7, 8,
                                                 workers=workers),
    "grw": lambda workers=None: grw_ensemble(PHI, H, GRW, 7, 8, workers=workers),
    "hybrid": lambda workers=None: hybrid_ensemble(PHI, H, HYBRID, 7, 8, workers=workers),
}


class TestEngineThreads:
    """The engine threads are the usable cores, capped at the worker count when one is set."""

    @pytest.mark.parametrize("cores,workers,threads", [
        (1, None, 1), (2, None, 2), (4, None, 4), (2, 1, 1), (4, 2, 2), (2, 3, 2)])
    def test_workers_cap_the_usable_cores(self, cores, workers, threads, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert engine.engine_threads(workers) == threads

    @pytest.mark.parametrize("process", sorted(BLOCK_RUNS))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_ensemble_runs_its_blocks_on_at_most_workers_threads(self, workers, process):
        # 8 blocks of one row; each block's unitaries record the thread that ran it
        seen = set()
        unitary = engine._unitary_rows

        def recording(*args, **kwargs):
            seen.add(threading.get_ident())
            return unitary(*args, **kwargs)

        with mock.patch.object(engine, "_BLOCK_AMPLITUDES", GRID.n_points), \
                mock.patch.object(engine, "_unitary_rows", recording):
            got = BLOCK_RUNS[process](workers)
        assert 1 <= len(seen) <= min(workers, engine.engine_threads())
        if workers == 1:
            assert len(seen) == 1
        assert_same_bytes(got, BLOCK_RUNS[process]())
