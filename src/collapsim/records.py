"""Trajectory ensembles and weighted ensembles shared by all process models.

Every simulation entry point returns a ``Trajectories``: the engine's
arrays for N trajectories, from the stacked (N, T, n) snapshots and (N, T)
weights to the flashes, stored flat with a per-row count.  The archive
writes and reads that type, and ``reweight_ensemble`` takes one column of
it as a WeightedEnsemble, the ensemble at one time: the (N, n) amplitudes
on one grid and the (N,) weights that the density matrix, its standard
error, the summary and the density export read.  ``Trajectories[i]`` and
iteration give TrajectoryRecord rows, built on demand as views.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, ScheduleMismatchError
from .grid import NORMALIZED, Grid, WaveFunction


def _time_index(times, t):
    """Index of t in the recorded schedule, with a small absolute/relative slack."""
    for i, s in enumerate(times):
        if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
            return i
    raise ScheduleMismatchError(f"time {t} is not in the sample schedule {times}")


@dataclass(frozen=True)
class FlashEvent:
    """One collapse event: its time, its center, and the squared norm of the
    hit state just before renormalization (the flash-density value)."""

    time: float
    center: float
    pre_collapse_norm2: float


@dataclass(eq=False)
class TrajectoryRecord:
    """One realization of a collapse process: a row of a Trajectories.

    ``times`` are the sample times, ``states`` the normalized snapshots at
    those times (empty for a weights-only run), and ``weights`` the raw
    squared norms there (identically 1 for the jump process, whose states
    renormalize at every hit).  ``flashes`` lists the collapse events for
    the jump and hybrid processes.  The states and weights are views of the
    ensemble's arrays.
    """

    seed: int
    index: int
    times: tuple
    states: tuple
    weights: np.ndarray
    flashes: tuple = ()
    boundary_flag: bool = False

    def state_at(self, t) -> WaveFunction:
        i = _time_index(self.times, t)
        if i >= len(self.states):
            raise ScheduleMismatchError(f"no state stored at time {t}")
        return self.states[i]

    def weight_at(self, t) -> float:
        return float(self.weights[_time_index(self.times, t)])


@dataclass(eq=False)
class Trajectories:
    """N trajectories of one process at T sample times, as arrays.

    ``indices`` (N,) are the trajectory indices, ``weights`` (N, T) the raw
    squared norms at ``times``, ``states`` (N, T, n) the normalized
    snapshots on ``grid`` (None for a weights-only run; complex128 from the
    engine, complex64 from an archive), and ``boundary_flags`` (N,) whether
    a row's boundary mass ever passed the limit.  The flashes are flat:
    row i owns the next ``n_flashes[i]`` entries of ``flash_times``,
    ``flash_centers`` and ``flash_norms`` (the raw squared norm after the
    factor); a run without flashes passes none of the four and gets empty
    ones.  ``traj[i]`` (negative i counts from the end) and iteration give
    TrajectoryRecord rows.  Every row is a pure function of (process, seed,
    index).
    """

    seed: int
    grid: Grid
    times: tuple
    indices: np.ndarray
    weights: np.ndarray
    states: np.ndarray
    boundary_flags: np.ndarray
    flash_times: np.ndarray = None
    flash_centers: np.ndarray = None
    flash_norms: np.ndarray = None
    n_flashes: np.ndarray = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        n = len(self.indices)
        if self.n_flashes is None:
            self.flash_times = self.flash_centers = self.flash_norms = np.zeros(0)
            self.n_flashes = np.zeros(n, dtype=np.int64)
        self._ends = np.cumsum(self.n_flashes)
        shape = (n, len(self.times))
        if (self.weights.shape != shape or len(self.flash_times) != self.n_flashes.sum()
                or self.states is not None and self.states.shape != shape + (self.grid.n_points,)):
            raise InvalidParameterError(
                "trajectory arrays disagree with the indices, times or grid")

    @classmethod
    def concat(cls, parts):
        """The rows of ``parts`` in order; they must share grid and times."""
        first = parts[0]
        if any(part.grid != first.grid for part in parts):
            raise GridMismatchError("trajectories live on different grids")
        if any(part.times != first.times for part in parts):
            raise ScheduleMismatchError("trajectories have different sample times")
        columns = ([getattr(part, f.name) for part in parts] for f in fields(cls)[3:])
        return cls(first.seed, first.grid, first.times,
                   *(None if col[0] is None else np.concatenate(col) for col in columns))

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i) -> TrajectoryRecord:
        i = range(len(self))[i]
        lo, hi = self._ends[i] - self.n_flashes[i], self._ends[i]
        flashes = tuple(map(FlashEvent, *(a[lo:hi].tolist() for a in (
            self.flash_times, self.flash_centers, self.flash_norms))))
        states = () if self.states is None else tuple(
            WaveFunction(self.grid, a, NORMALIZED) for a in self.states[i])
        return TrajectoryRecord(self.seed, int(self.indices[i]), self.times, states,
                                self.weights[i], flashes, bool(self.boundary_flags[i]))


@dataclass(eq=False)
class WeightedEnsemble:
    """Stacked states and importance weights of an ensemble at one time.

    ``amplitudes`` is the (N, n) array of the N normalized snapshots on
    ``grid``, in the dtype the trajectories carry (complex128 from the
    engine, complex64 from an archive), and ``weights`` the (N,) raw squared
    norms.  The weights are used unnormalized: the estimator of E[f] is
    sum(w_i f_i) / N, since the reweighted measure has total mass E[w] = 1
    (a martingale identity), so mean_weight doubles as a correctness
    diagnostic.
    """

    time: float
    grid: Grid
    amplitudes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.weights)
        if n == 0 or self.amplitudes.shape != (n, self.grid.n_points):
            raise InvalidParameterError(
                "an ensemble needs N >= 1 rows of amplitudes on its grid and N weights")

    @property
    def n(self):
        return len(self.weights)

    def mean_weight(self):
        return float(self.weights.mean())


def reweight_ensemble(records, t) -> WeightedEnsemble:
    """The column of a Trajectories at time t: its snapshots and raw-norm weights.

    Both are views of the trajectories' arrays.  A time outside the
    schedule, or a weights-only run, raises ScheduleMismatchError, and an
    empty ensemble InvalidParameterError (from WeightedEnsemble).
    """
    j = _time_index(records.times, t)
    if records.states is None:
        raise ScheduleMismatchError(f"no state stored at time {t}")
    return WeightedEnsemble(float(t), records.grid, records.states[:, j],
                            records.weights[:, j])
