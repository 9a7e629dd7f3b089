"""Trajectories, the one array type of an ensemble: joins of slices against one
call, the archive round trip, reweight_ensemble against per-row stacking,
the row views, and the worker count of the pool that joins the slices."""

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
    hybrid_ensemble,
    make_gaussian_packet,
    reweight_ensemble,
)
from collapsim import diosi, parallel
from collapsim.archive import read_archive, write_archive
from collapsim.config import RunConfig
from collapsim.diosi import _hybrid_records
from collapsim.errors import ArchiveError, ConfigError, InvalidParameterError
from collapsim.grid import cosine_potential, position_moments
from collapsim.grw import _grw_records
from collapsim.master import ensemble_density_se
from collapsim.parallel import worker_count
from collapsim.records import Trajectories, WeightedEnsemble

GRID = Grid(64, -12.0, 12.0)
PHI = make_gaussian_packet(GRID, 0.0, 1.0)
H = HamiltonianSpec(GRID, cosine_potential(GRID, 0.5))
TIMES = (0.125, 0.25)
GRW = GrwParams(4.0, 0.5, 0.3, TIMES, unitary_substep=1.0 / 32.0)
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


@pytest.mark.parametrize("process", sorted(SLICES))
def test_joined_slices_are_one_call(process):
    # blocks of 3 rows inside each slice; the slices [0, 2) and [2, 12) have
    # different flash widths, and both hold rows without flashes
    with mock.patch.object(diosi, "_BLOCK_AMPLITUDES", 3 * GRID.n_points):
        head, tail, whole = (SLICES[process](lo, hi) for lo, hi in ((0, 2), (2, 12), (0, 12)))
    assert head.n_flashes.max() != tail.n_flashes.max()
    assert 0 in head.n_flashes and 0 in tail.n_flashes
    assert_same_bytes(Trajectories.concat([head, tail]), whole)


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
    def test_default_argument_and_environment(self, monkeypatch):
        monkeypatch.delenv("COLLAPSIM_WORKERS", raising=False)
        assert worker_count() == 1 and worker_count(3) == 3
        monkeypatch.setenv("COLLAPSIM_WORKERS", "2")
        assert worker_count() == 2 and worker_count(1) == 1

    @pytest.mark.parametrize("workers", [0, -5])
    def test_count_below_one_is_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            worker_count(workers)

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
    def test_environment_that_is_not_a_positive_integer_is_rejected(self, env, monkeypatch):
        monkeypatch.setenv("COLLAPSIM_WORKERS", env)
        with pytest.raises(ConfigError, match="COLLAPSIM_WORKERS"):
            worker_count()
        with pytest.raises(ConfigError):
            hybrid_ensemble(PHI, H, HYBRID, 7, 4)

    def test_pool_of_two_is_one_call(self):
        assert_same_bytes(hybrid_ensemble(PHI, H, HYBRID, 7, 9, workers=2),
                          SLICES["hybrid"](0, 9))


def _engine_threads_slice(lo, hi):
    """A slice whose weights hold the engine threads of the process that made it."""
    return Trajectories(0, GRID, (0.0,), list(range(lo, hi)),
                        np.full((hi - lo, 1), float(parallel.engine_threads())), None,
                        np.zeros(hi - lo, dtype=bool))


class TestEngineThreads:
    """The engine threads are this process's share of the usable cores."""

    @pytest.mark.parametrize("cores,sharing,threads", [
        (1, 1, 1), (2, 1, 2), (4, 2, 2), (2, 2, 1), (3, 2, 1), (2, 4, 1)])
    def test_cores_divided_among_the_processes(self, cores, sharing, threads, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(parallel, "_processes_sharing_cores", sharing)
        assert parallel.engine_threads() == threads

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_workers_share_the_cores(self, workers):
        cores = parallel._usable_cores()
        got = parallel.run_sliced(_engine_threads_slice, (), 8, workers)
        assert np.all(got.weights == max(1, cores // workers))
        assert parallel.engine_threads() == cores  # the caller keeps its own share
