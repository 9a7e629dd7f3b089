"""Density-matrix (Lindblad) evolution for both collapse models.

The kernels rho(x_i, x_j) evolve under

    d rho / dt = -i [H, rho] - D(x, y) rho(x, y)

with decoherence rate D = mu (1 - exp(-alpha (x-y)^2 / 4)) for the jump
model and D = (lam / 2)(x - y)^2 for the diffusion model.  With H = 0 both
equations are diagonal linear ODEs with the closed-form solutions used as
oracles in the tests.  The integrator is fixed-step RK4 with step-halving
validation (reproducible, no adaptive state).

The solver integrates one packed real matrix.  A Hermitian rho = R + iJ
has R real symmetric and J real antisymmetric, so M = R + J holds both:
R = (M + M^T)/2, J = (M - M^T)/2 and M^T = R - J.  H = T + diag(V) is real
symmetric (the spectral kinetic matrix T is a real symmetric circulant,
since k^2 is even on the FFT grid) and so is D.  The real and imaginary
parts of the equation are dR/dt = [H, J] - D R and dJ/dt = -[H, R] - D J,
hence

    dM/dt = [H, J - R] - D M = -[H, M^T] - D M = [H, M]^T - D M,

where [H, M]^T = M^T H - H M^T is two real n x n GEMMs (the flops of one
n x 2n real product) and every other pass is on float64 (n, n) arrays.  rho is unpacked
once per solve, and the unpacking is exactly Hermitian for any real M.  The
packing needs a Hermitian initial kernel: its hermiticity defect may be at
most HERMITIAN_RTOL times its largest entry, and it is symmetrized before
it is packed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, StepTooLargeError
from .grid import _require_positive, hamiltonian_matrix

MAX_MASTER_POINTS = 128

# Most RK4 steps one solve may plan (step-halving validation then runs twice
# as many); a longer solve raises InvalidParameterError before any step.
MAX_RK4_STEPS = 100_000

# Largest hermiticity defect of rho0, relative to its largest entry, that
# the solvers accept (and remove by symmetrizing).
HERMITIAN_RTOL = 1e-12


@dataclass(eq=False)
class DensityMatrix:
    """n x n kernel rho(x_i, x_j); trace is sum of the diagonal times dx."""

    grid: object
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        if n > MAX_MASTER_POINTS:
            raise InvalidParameterError(
                f"master-equation grids are capped at {MAX_MASTER_POINTS} points")
        if self.entries.shape != (n, n):
            raise InvalidParameterError("entries do not match the grid")

    @classmethod
    def from_wavefunction(cls, psi):
        a = psi.amplitudes
        return cls(psi.grid, np.outer(a, a.conj()))

    def trace(self):
        return float(np.real(np.trace(self.entries))) * self.grid.dx

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


def grw_decoherence_rates(grid, mu, alpha):
    """Rate matrix mu (1 - exp(-alpha (x_i - x_j)^2 / 4))."""
    _require_positive(mu=mu, alpha=alpha)
    sep = grid.x[:, None] - grid.x[None, :]
    return mu * (1.0 - np.exp(-0.25 * alpha * sep**2))


def diosi_decoherence_rates(grid, lam):
    """Rate matrix (lam / 2)(x_i - x_j)^2."""
    _require_positive(lam=lam)
    sep = grid.x[:, None] - grid.x[None, :]
    return 0.5 * lam * sep**2


def _rhs(h, rates):
    """The map (m, out) -> out = [H, m]^T - rates m on a packed kernel m.

    H is real symmetric, so [H, m]^T = m^T H - H m^T: two real GEMMs, each
    reading m transposed through the BLAS flags, plus three float64 passes
    into ``out`` and one scratch buffer.
    """
    neg_rates = -rates
    h_mat = hamiltonian_matrix(h).real.copy()
    tmp = np.empty_like(neg_rates)

    def rhs(m, out):
        np.matmul(m.T, h_mat, out=out)
        np.matmul(h_mat, m.T, out=tmp)
        out -= tmp
        np.multiply(neg_rates, m, out=tmp)
        out += tmp
        return out

    return rhs


def _rk4(m, rhs, t, n_steps):
    """n_steps classical RK4 steps of dm/dt = rhs(m) from m, in reused buffers.

    The update is m + (dt/6)(k1 + 2 k2 + 2 k3 + k4), summed in that order.
    """
    dt = t / n_steps
    m = m.copy()
    acc, k, stage, tmp = (np.empty_like(m) for _ in range(4))
    for _ in range(n_steps):
        rhs(m, acc)  # k1
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += m
        rhs(stage, k)  # k2
        np.multiply(k, 0.5 * dt, out=stage)
        stage += m
        np.multiply(k, 2.0, out=tmp)
        acc += tmp
        rhs(stage, k)  # k3
        np.multiply(k, dt, out=stage)
        stage += m
        np.multiply(k, 2.0, out=tmp)
        acc += tmp
        rhs(stage, k)  # k4
        acc += k
        acc *= dt / 6.0
        m += acc
    return m


def _unpack(m):
    """rho = (m + m^T)/2 + i (m - m^T)/2: exactly Hermitian for any real m."""
    rho = np.empty(m.shape, dtype=np.complex128)
    rho.real = 0.5 * (m + m.T)
    rho.imag = 0.5 * (m - m.T)
    return rho


def _evolve(rho0, h, rates, t, dt):
    """rho_t by fixed-step RK4 of d rho / dt = -i [H, rho] - rates rho.

    RK4 runs on the packed real kernel M = Re rho + Im rho (module
    docstring) and rho is unpacked once at the end, so the result is
    exactly Hermitian.  The packing holds only for Hermitian rho, so rho0
    must be Hermitian to HERMITIAN_RTOL relative to its largest entry
    (InvalidParameterError otherwise, and for non-finite entries) and is
    symmetrized first.  t must be finite and nonnegative, dt positive and
    finite, and t / dt at most MAX_RK4_STEPS.  Every solve reruns at half
    the step and raises StepTooLargeError unless the two agree to 1e-6 in
    every entry of rho.
    """
    if not 0 <= t < math.inf:
        raise InvalidParameterError(f"t must be finite and nonnegative, got {t!r}")
    _require_positive(dt=dt)
    if not t / dt <= MAX_RK4_STEPS:
        raise InvalidParameterError(
            f"t / dt = {t / dt:.3g} RK4 steps exceeds the cap of {MAX_RK4_STEPS}; raise dt")
    if rho0.grid != h.grid:
        raise GridMismatchError("density matrix and Hamiltonian grids differ")
    defect = rho0.hermiticity_defect()
    scale = float(np.max(np.abs(rho0.entries)))
    if not defect <= HERMITIAN_RTOL * scale:
        raise InvalidParameterError(
            f"rho0 must be finite and Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITIAN_RTOL:g} of its largest entry {scale:.3e}")
    entries = np.asarray(rho0.entries, dtype=np.complex128)
    entries = 0.5 * (entries + entries.conj().T)
    if t == 0:
        return DensityMatrix(rho0.grid, entries)
    rhs = _rhs(h, rates)
    n_steps = max(1, math.ceil(t / dt - 1e-12))
    packed = entries.real + entries.imag
    out = _unpack(_rk4(packed, rhs, t, n_steps))
    fine = _unpack(_rk4(packed, rhs, t, 2 * n_steps))
    err = float(np.max(np.abs(out - fine)))
    if not err <= 1e-6:
        raise StepTooLargeError(f"step-halving disagreement {err:.3e} > 1e-6; reduce dt")
    return DensityMatrix(rho0.grid, out)


def evolve_grw_master(rho0, h, mu, alpha, t, dt):
    """rho_t solving the jump-model master equation with fixed-step RK4.

    Trace is conserved to roundoff (the commutator is traceless and the
    decoherence factor vanishes on the diagonal).  The solve reruns at half
    the step and raises StepTooLargeError on disagreement > 1e-6.
    """
    rates = grw_decoherence_rates(rho0.grid, mu, alpha)
    return _evolve(rho0, h, rates, t, dt)


def evolve_diosi_master(rho0, h, lam, t, dt):
    """rho_t solving the diffusion-model master equation (see evolve_grw_master)."""
    rates = diosi_decoherence_rates(rho0.grid, lam)
    return _evolve(rho0, h, rates, t, dt)


def _weighted_outer(amps, w):
    """(1/N) sum_i w_i amps_i amps_i^H as one matmul."""
    return (amps.T * w) @ amps.conj() / len(w)


def ensemble_density(ensemble):
    """Monte Carlo density matrix (1/N) sum_i w_i |phi_i><phi_i|.

    For diffusion/hybrid ensembles the raw squared norms enter as weights
    (the average of raw outer products under the reference measure); for
    jump ensembles all weights are 1.  Hermitian by construction.
    """
    amps = np.asarray(ensemble.amplitudes, dtype=np.complex128)
    return DensityMatrix(ensemble.grid, _weighted_outer(amps, ensemble.weights))


def density_max_gap(rho_hat, se, reference):
    """max-norm gap to the reference and the pooled SE at the maximizing entry.

    The comparison lives where the deviation is largest, which is always a
    well-sampled entry; far-tail entries have rare-event-dominated errors
    for which per-entry standard errors are meaningless at desk-scale N.
    """
    delta = np.abs(rho_hat.entries - reference.entries)
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return float(delta[i, j]), float(se[i, j])


def ensemble_density_se(ensemble):
    """Entrywise standard error of ensemble_density (complex parts pooled).

    The variance of the term w_i phi_i(x) conj(phi_i(y)), real and imaginary
    parts together, is E[w^2 |phi(x)|^2 |phi(y)|^2] - |rho(x, y)|^2.
    """
    amps, w = np.asarray(ensemble.amplitudes, dtype=np.complex128), ensemble.weights
    big = len(w)
    mean = _weighted_outer(amps, w)
    dens = amps.real**2 + amps.imag**2
    var = (dens.T * (w * w)) @ dens / big - (mean.real**2 + mean.imag**2)
    var = np.maximum(var, 0.0) * big / max(big - 1, 1)
    return np.sqrt(var / big)
