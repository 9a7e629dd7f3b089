"""ensemble_density and ensemble_density_se against the per-state sums they
compute with one weighted matmul."""

import numpy as np
import pytest

from collapsim import Grid, WaveFunction, ensemble_density
from collapsim.errors import GridMismatchError
from collapsim.master import ensemble_density_se
from collapsim.records import WeightedEnsemble

GRID = Grid(32, -8.0, 8.0)


def _ensemble(dtype, n=50, seed=3):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((n, GRID.n_points)) + 1j * rng.standard_normal(
        (n, GRID.n_points))
    states = tuple(WaveFunction(GRID, a.astype(dtype)) for a in amps)
    return WeightedEnsemble(0.0, states, rng.exponential(size=n))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_matches_per_state_sums(dtype):
    ens = _ensemble(dtype)
    terms = np.array([w * np.outer(s.amplitudes.astype(np.complex128),
                                   s.amplitudes.astype(np.complex128).conj())
                      for w, s in zip(ens.weights, ens.states)])
    mean = terms.mean(axis=0)
    var = (terms.real.var(axis=0, ddof=1) + terms.imag.var(axis=0, ddof=1))
    scale = np.max(np.abs(mean))
    assert np.max(np.abs(ensemble_density(ens).entries - mean)) <= 1e-12 * scale
    se = ensemble_density_se(ens)
    assert np.max(np.abs(se - np.sqrt(var / ens.n))) <= 1e-12 * np.max(se)


def test_states_on_another_grid_are_rejected():
    ens = _ensemble(np.complex128, n=3)
    other = WaveFunction(Grid(32, -4.0, 4.0), ens.states[0].amplitudes)
    mixed = WeightedEnsemble(0.0, ens.states[:2] + (other,), ens.weights)
    for fn in (ensemble_density, ensemble_density_se):
        with pytest.raises(GridMismatchError):
            fn(mixed)
