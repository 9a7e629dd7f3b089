"""ensemble_density and ensemble_density_se against the per-state sums they
compute with one weighted matmul, and reweight_ensemble as the column of a
Trajectories at one time."""

import numpy as np
import pytest

from collapsim import Grid, ensemble_density, reweight_ensemble
from collapsim.errors import InvalidParameterError, ScheduleMismatchError
from collapsim.master import ensemble_density_se
from collapsim.records import Trajectories, WeightedEnsemble

GRID = Grid(32, -8.0, 8.0)


def _ensemble(dtype, n=50, seed=3):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((n, GRID.n_points)) + 1j * rng.standard_normal(
        (n, GRID.n_points))
    return WeightedEnsemble(0.0, GRID, amps.astype(dtype), rng.exponential(size=n))


def _records(amplitudes, weights):
    """Trajectories of the one sample time 0.5 with the given (N, n) amplitudes and weights."""
    n = len(weights)
    return Trajectories(0, GRID, (0.5,), range(n), np.asarray(weights)[:, None],
                        amplitudes[:, None], np.zeros(n, dtype=bool))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_matches_per_state_sums(dtype):
    ens = _ensemble(dtype)
    terms = np.array([w * np.outer(a.astype(np.complex128), a.astype(np.complex128).conj())
                      for w, a in zip(ens.weights, ens.amplitudes)])
    mean = terms.mean(axis=0)
    var = (terms.real.var(axis=0, ddof=1) + terms.imag.var(axis=0, ddof=1))
    scale = np.max(np.abs(mean))
    assert np.max(np.abs(ensemble_density(ens).entries - mean)) <= 1e-12 * scale
    se = ensemble_density_se(ens)
    assert np.max(np.abs(se - np.sqrt(var / ens.n))) <= 1e-12 * np.max(se)


def test_states_on_another_grid_are_rejected():
    ens = _ensemble(np.complex128, n=3)
    with pytest.raises(InvalidParameterError):  # a state array that does not fit the grid
        _records(ens.amplitudes[:, :16], ens.weights)


def test_rows_off_the_schedule_are_rejected():
    ens = _ensemble(np.complex128, n=3)
    head = _records(ens.amplitudes[:2], ens.weights[:2])
    with pytest.raises(ScheduleMismatchError):
        reweight_ensemble(head, 0.25)


def test_reweight_stacks_rows_in_record_order():
    ens = _ensemble(np.complex64, n=4)
    got = reweight_ensemble(_records(ens.amplitudes, ens.weights), 0.5)
    assert got.grid == GRID and got.time == 0.5
    assert got.amplitudes.dtype == np.complex64
    assert np.array_equal(got.amplitudes, ens.amplitudes)
    assert np.array_equal(got.weights, ens.weights)


def test_empty_or_mismatched_ensembles_are_rejected():
    ens = _ensemble(np.complex128, n=3)
    with pytest.raises(InvalidParameterError):
        reweight_ensemble(_records(ens.amplitudes[:0], ens.weights[:0]), 0.5)
    with pytest.raises(InvalidParameterError):
        WeightedEnsemble(0.0, GRID, np.zeros((0, GRID.n_points), complex), np.zeros(0))
    with pytest.raises(InvalidParameterError):
        WeightedEnsemble(0.0, GRID, np.zeros((3, 16), complex), np.ones(3))
