"""Trajectory records and weighted ensembles shared by all process models.

A TrajectoryRecord holds one trajectory's snapshots as WaveFunctions.  A
WeightedEnsemble holds the ensemble at one time as arrays: the (N, n)
amplitudes on one grid and the (N,) weights.  ``reweight_ensemble`` stacks
it from the records; the density matrix, its standard error, the summary
and the density export all read those arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, ScheduleMismatchError
from .grid import NORMALIZED, Grid, WaveFunction
from .stats import mean_se


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
    """One realization of a collapse process.

    ``times`` are the requested sample times, ``states`` the normalized
    snapshots at those times, and ``weights`` the raw squared norms there
    (identically 1 for the jump process, whose states renormalize at every
    hit).  ``flashes`` lists the collapse events for the jump and hybrid
    processes.  Everything is a pure function of (params, seed, index).
    """

    seed: int
    index: int
    times: tuple
    states: tuple
    weights: np.ndarray
    flashes: tuple = ()
    boundary_flag: bool = False
    flow_cells: tuple = ()

    def state_at(self, t) -> WaveFunction:
        i = _time_index(self.times, t)
        if i >= len(self.states):
            raise ScheduleMismatchError(f"no state stored at time {t}")
        return self.states[i]

    def weight_at(self, t) -> float:
        return float(self.weights[_time_index(self.times, t)])


@dataclass(eq=False)
class WeightedEnsemble:
    """Stacked states and importance weights of an ensemble at one time.

    ``amplitudes`` is the (N, n) array of the N normalized snapshots on
    ``grid``, in the dtype the records carry (complex128 from the engine,
    complex64 from an archive), and ``weights`` the (N,) raw squared norms.
    The weights are used unnormalized: the estimator of E[f] is
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

    def expectation(self, f):
        """(mean, standard error) of sum w_i f(state_i) / N; f takes a WaveFunction."""
        vals = [f(WaveFunction(self.grid, a, NORMALIZED)) for a in self.amplitudes]
        return mean_se(self.weights * np.array(vals, dtype=float))


def reweight_ensemble(records, t) -> WeightedEnsemble:
    """Stack the snapshots and weights of trajectory records at time t.

    This is the one place an ensemble is stacked.  The weight of record i
    is its raw squared norm at t.  Records missing a snapshot at t raise
    ScheduleMismatchError, states on different grids GridMismatchError,
    and an empty list InvalidParameterError.
    """
    if not records:
        raise InvalidParameterError("empty ensemble")
    states = [rec.state_at(t) for rec in records]
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise GridMismatchError("ensemble states live on different grids")
    return WeightedEnsemble(float(t), grid, np.array([s.amplitudes for s in states]),
                            np.array([rec.weight_at(t) for rec in records], dtype=float))
