"""ensemble_density and ensemble_density_se against the per-state sums they
compute with one weighted matmul, and reweight_ensemble as the one place an
ensemble is stacked."""

import numpy as np
import pytest

from collapsim import Grid, TrajectoryRecord, WaveFunction, ensemble_density, reweight_ensemble
from collapsim.errors import GridMismatchError, InvalidParameterError
from collapsim.master import ensemble_density_se
from collapsim.records import WeightedEnsemble

GRID = Grid(32, -8.0, 8.0)


def _ensemble(dtype, n=50, seed=3):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((n, GRID.n_points)) + 1j * rng.standard_normal(
        (n, GRID.n_points))
    return WeightedEnsemble(0.0, GRID, amps.astype(dtype), rng.exponential(size=n))


def _records(states, weights, t=0.5):
    return [TrajectoryRecord(seed=0, index=i, times=(t,), states=(s,), weights=np.array([w]))
            for i, (s, w) in enumerate(zip(states, weights))]


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
    states = [WaveFunction(GRID, a) for a in ens.amplitudes]
    states[2] = WaveFunction(Grid(32, -4.0, 4.0), ens.amplitudes[2])
    with pytest.raises(GridMismatchError):
        reweight_ensemble(_records(states, ens.weights), 0.5)


def test_reweight_stacks_rows_in_record_order():
    ens = _ensemble(np.complex64, n=4)
    states = [WaveFunction(GRID, a) for a in ens.amplitudes]
    got = reweight_ensemble(_records(states, ens.weights), 0.5)
    assert got.grid == GRID and got.time == 0.5
    assert got.amplitudes.dtype == np.complex64
    assert np.array_equal(got.amplitudes, ens.amplitudes)
    assert np.array_equal(got.weights, ens.weights)


def test_empty_or_mismatched_ensembles_are_rejected():
    with pytest.raises(InvalidParameterError):
        reweight_ensemble([], 0.5)
    with pytest.raises(InvalidParameterError):
        WeightedEnsemble(0.0, GRID, np.zeros((0, GRID.n_points), complex), np.zeros(0))
    with pytest.raises(InvalidParameterError):
        WeightedEnsemble(0.0, GRID, np.zeros((3, 16), complex), np.ones(3))
