"""Trajectory records and weighted ensembles shared by all process models."""

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleMismatchError
from .grid import WaveFunction


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
    """States and importance weights of an ensemble at one time.

    The weights are the raw squared norms under the reference measure and
    are used unnormalized: the estimator of E[f] is sum(w_i f_i) / N, since
    the reweighted measure has total mass E[w] = 1 (a martingale identity).
    mean_weight therefore doubles as a correctness diagnostic.
    """

    time: float
    states: tuple
    weights: np.ndarray

    @property
    def n(self):
        return len(self.weights)

    def mean_weight(self):
        return float(self.weights.mean())

    def expectation(self, f):
        """(mean, standard error) of sum w_i f(state_i) / N."""
        vals = np.array([f(s) for s in self.states], dtype=float)
        g = self.weights * vals
        mean = float(g.mean())
        se = float(g.std(ddof=1) / np.sqrt(self.n)) if self.n > 1 else float("inf")
        return mean, se


def reweight_ensemble(records, t) -> WeightedEnsemble:
    """Collect (state, weight) pairs at time t from trajectory records.

    The weight of record i is its raw squared norm at t; records missing a
    snapshot at t raise ScheduleMismatchError.
    """
    states = []
    weights = np.empty(len(records))
    for i, rec in enumerate(records):
        states.append(rec.state_at(t))
        weights[i] = rec.weight_at(t)
    return WeightedEnsemble(time=float(t), states=tuple(states), weights=weights)
