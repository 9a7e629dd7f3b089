"""Wavefunctions on a uniform 1-D grid and the row operations of the Trotter product.

This module provides the discretized Hilbert space shared by the jump and
diffusion collapse models: Gaussian packets, the split-step spectral
Schrodinger propagator, the raw Gaussian hit multiplication, and the exact
Gaussian collapse flow exp(sqrt(lambda) x dxi - lambda x^2 dt).

Each operation is defined once, on (rows, n) amplitude arrays: the squared
norms ``_norm2_rows``, the unitary ``_unitary_rows`` (composed split steps
with per-row durations), the flow ``_flow_rows`` with its overflow guard,
the hit ``_hit_rows`` and ``_normalize_rows`` with its vanishing-state
check.  The Trotter engine in ``diosi`` applies them to its row blocks.
The single-state functions (``schrodinger_step``, ``evolve_unitary``,
``collapse_flow``, ``gaussian_hit``, ``normalize``, the moments and the
boundary mass) check their arguments and then call the row operation on
a batch of one, so the checks that exercise them exercise the engine's
arithmetic.

The split step ``_apply_split_step`` works in place: the phase products
write into the rows, and numpy.fft writes its transforms back into them
(the same bits as scipy.fft on the engine's shapes), so a step allocates
nothing.  The per-row phasors exp(-i dt V / 2) and exp(-i dt k^2 / 2) of
``_unitary_rows`` are formed by ``_phasors`` as cos and sin written into
the real and imaginary parts of one complex array, bit for bit the
complex exponentials; k^2 is exactly mirror-even on the FFT grid, so the
kinetic phasor is computed on the half spectrum and mirrored.

Conventions: hbar = 1, mass = 1, H = -1/2 d^2/dx^2 + V(x) with V bounded.
Boundary conditions are periodic (spectral propagator); quadrature is the
plain rectangle rule sum |psi_j|^2 dx, which is consistent with the DFT
Parseval identity, so the split step preserves the discrete norm exactly.
The single-state functions are pure: state in, new state out.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import (
    DegenerateStateError,
    GridMismatchError,
    GridTooSmallError,
    InvalidParameterError,
    StepTooLargeError,
)

RAW = "raw"
NORMALIZED = "normalized"

# Largest exponent handed to np.exp inside the collapse flow before raising.
_EXP_OVERFLOW_LIMIT = 700.0

# Default cap on the duration of a single split step when V != 0.
DEFAULT_UNITARY_SUBSTEP = 1.0 / 128.0

# Boundary mass above which a trajectory is flagged (see boundary_mass).
BOUNDARY_MASS_LIMIT = 1e-6


def _require_positive(**values):
    """Raise InvalidParameterError unless every value is positive and finite."""
    for name, value in values.items():
        if not (0 < value < math.inf):
            raise InvalidParameterError(
                f"{name} must be positive and finite, got {value!r}")


def _validate_substep(unitary_substep):
    if unitary_substep is not None:
        _require_positive(unitary_substep=unitary_substep)


def _substep_cap(unitary_substep):
    """The split-step cap of a process: its unitary_substep, else the default."""
    return DEFAULT_UNITARY_SUBSTEP if unitary_substep is None else float(unitary_substep)


def _validate_sample_times(sample_times, t_max):
    times = tuple(float(t) for t in sample_times)
    if not all(0 <= t <= t_max + 1e-12 for t in times):  # NaN fails too
        raise InvalidParameterError("sample_times must lie in [0, t_max]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidParameterError("sample_times must be strictly increasing")
    return times


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid x_j = x_min + j dx, j = 0 .. n_points-1.

    n_points must be a power of two (>= 8) for the spectral propagator.
    """

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise InvalidParameterError("n_points must be a power of two >= 8")
        if not (self.x_max > self.x_min):
            raise InvalidParameterError("x_max must exceed x_min")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_points

    @cached_property
    def x(self):
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.setflags(write=False)
        return x

    @cached_property
    def k(self):
        """Angular wavenumbers matching np.fft ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.setflags(write=False)
        return k

    @cached_property
    def k2(self):
        """k**2, exactly mirror-even: k2[n - j] == k2[j], since fftfreq's k[n - j] is -k[j]."""
        k2 = self.k**2
        k2.setflags(write=False)
        return k2


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on a grid, units length^(-1/2).

    ``label`` records whether the state is known to be normalized; raw
    states carry physical weight information in their squared norm.
    """

    grid: Grid
    amplitudes: np.ndarray
    label: str = RAW

    def __post_init__(self):
        if self.amplitudes.shape != (self.grid.n_points,):
            raise InvalidParameterError("amplitude array does not match grid")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """H = -1/2 Laplacian + V with V given at grid points; hbar = mass = 1.

    ``kinetic=False`` drops the Laplacian, so V = 0 and kinetic off gives
    the exact H = 0 evolution (identity).
    """

    grid: Grid
    potential: np.ndarray
    kinetic: bool = True

    def __post_init__(self):
        if self.potential.shape != (self.grid.n_points,):
            raise InvalidParameterError("potential array does not match grid")
        if not np.all(np.isfinite(self.potential)):
            raise InvalidParameterError("potential must be bounded (finite values)")

    @cached_property
    def potential_is_zero(self):
        return bool(np.all(self.potential == 0.0))

    @property
    def is_zero(self):
        return self.potential_is_zero and not self.kinetic

    @classmethod
    def free(cls, grid):
        """Kinetic term only (V = 0)."""
        return cls(grid, np.zeros(grid.n_points))

    @classmethod
    def zero(cls, grid):
        """H = 0: no kinetic term, no potential."""
        return cls(grid, np.zeros(grid.n_points), kinetic=False)


def cosine_potential(grid, amplitude=0.5, wavenumber=1.0):
    """Bounded smooth test potential V(x) = amplitude * cos(wavenumber x)."""
    return amplitude * np.cos(wavenumber * grid.x)


@dataclass(frozen=True)
class CollapseSpec:
    """Collapse channel A = sqrt(lam) x (position coupling of strength lam)."""

    lam: float

    def __post_init__(self):
        _require_positive(lam=self.lam)


def norm2(psi):
    """Squared L2 norm sum |psi_j|^2 dx (rectangle rule)."""
    a = psi.amplitudes
    return float(np.real(np.vdot(a, a))) * psi.grid.dx


def normalize(psi):
    """Return psi / ||psi|| with label 'normalized'.

    The squared norm is norm2's; the division and the vanishing-state
    check are _normalize_rows on a batch of one.
    """
    out = _normalize_rows(psi.amplitudes[None, :], np.array([norm2(psi)]))
    return WaveFunction(psi.grid, out[0], NORMALIZED)


def inner(psi, chi):
    """<psi, chi> with the rectangle-rule measure; conjugate-linear in psi."""
    if psi.grid != chi.grid:
        raise GridMismatchError("states live on different grids")
    return complex(np.vdot(psi.amplitudes, chi.amplitudes)) * psi.grid.dx


def make_gaussian_packet(grid, center, sigma, momentum=0.0):
    """Normalized Gaussian packet |phi|^2 ~ exp(-(x-center)^2 / (2 sigma^2)).

    Parameters
    ----------
    grid : Grid
    center, sigma : float
        Center (finite) and position spread (positive and finite).
    momentum : float
        Plane-wave boost exp(i momentum x), finite.

    The caller is responsible for sizing the window and the spacing, each
    against a 1e-8 budget, else GridTooSmallError is raised:

    - window: the Gaussian mass outside [x_min, x_max] must be at most 1e-8;
    - resolution: the aliasing error of the sampled density, which by
      Poisson summation is 2 exp(-2 pi^2 sigma^2 / dx^2) in its moments,
      must be at most 1e-8, i.e. sigma must exceed about 0.98 dx.
    """
    _require_positive(sigma=sigma)
    for name, value in (("center", center), ("momentum", momentum)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    # analytic mass outside the window, two half-tails
    z_hi = (grid.x_max - center) / (math.sqrt(2.0) * sigma)
    z_lo = (center - grid.x_min) / (math.sqrt(2.0) * sigma)
    outside = 0.5 * (math.erfc(z_hi) + math.erfc(z_lo))
    if outside > 1e-8:
        raise GridTooSmallError(
            f"packet mass outside window is {outside:.3e} (> 1e-8)")
    aliasing = 2.0 * math.exp(-2.0 * math.pi**2 * (sigma / grid.dx) ** 2)
    if aliasing > 1e-8:
        raise GridTooSmallError(
            f"packet sigma={sigma:g} is unresolved at dx={grid.dx:g}: "
            f"aliasing error {aliasing:.3e} (> 1e-8)")
    x = grid.x
    envelope = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2))
    amps = envelope * np.exp(1j * momentum * x)
    return normalize(WaveFunction(grid, amps.astype(np.complex128)))


def _norm2_rows(amps, dx):
    """Squared norm sum |psi_j|^2 dx of each row of (rows, n) amplitudes."""
    return (amps.real**2 + amps.imag**2).sum(axis=1) * dx


def _normalize_rows(amps, n2, out=None):
    """Row r of amps divided by sqrt(n2[r]); ``out`` may be amps itself.

    Raises DegenerateStateError unless every n2 exceeds 1e-300.
    """
    if not np.all(n2 > 1e-300):
        raise DegenerateStateError("cannot normalize a numerically vanishing state")
    return np.divide(amps, np.sqrt(n2)[:, None], out=out)


def _split_phases(h, dt):
    """Potential-half and kinetic phase factors for one symmetric split step."""
    exp_v_half = None
    if not h.potential_is_zero:
        exp_v_half = np.exp(-0.5j * dt * h.potential)
    exp_t = np.exp(-0.5j * dt * h.grid.k2) if h.kinetic else None
    return exp_v_half, exp_t


def _apply_split_step(amps, exp_v_half, exp_t):
    """One symmetric split step on C-contiguous (..., n) amplitudes, in place.

    numpy.fft writes its transforms back into ``amps``; on the engine's
    shapes they are the same bits as scipy.fft's.
    """
    if exp_v_half is not None:
        amps *= exp_v_half
    if exp_t is not None:
        np.fft.fft(amps, axis=-1, out=amps)
        amps *= exp_t
        np.fft.ifft(amps, axis=-1, out=amps)
    if exp_v_half is not None:
        amps *= exp_v_half


def _phasors(scale, values, even=False):
    """Row r is exp(-0.5j * scale[r] * values): cos and sin into one complex array.

    Bit for bit np.exp(phase[:, None] * values) with phase = -0.5j * scale:
    that product is 0 + i theta with theta = (-0.5 scale) * values, a zero
    theta being +0, and the complex exp of 0 + i theta is cos theta + i sin
    theta.  With ``even`` the values are mirror-even like k^2 on the FFT grid
    (values[n - j] == values[j] exactly), so only the half spectrum
    0 .. n/2 is computed and the rest is mirrored.
    """
    n = values.size
    m = n // 2 + 1 if even else n
    theta = (-0.5 * scale)[:, None] * values[:m] + 0.0  # +0.0 turns -0 into +0
    out = np.empty((scale.size, n), dtype=np.complex128)
    np.cos(theta, out=out.real[:, :m])
    np.sin(theta, out=out.imag[:, :m])
    if even:
        out[:, m:] = out[:, n // 2 - 1:0:-1]
    return out


def _unitary_rows(amps, h, tau, cap, phases=None):
    """exp(-i tau_r H) on row r of amps, as composed split steps.

    ``tau`` is either a float, for one split step of every row with the
    precomputed ``phases``, or an array of per-row durations.  With an
    array, a row with tau_r = 0 is left as it is; row r takes
    ceil(tau_r / cap) equal split steps when V and the kinetic term are
    both present and cap is not None, and one step otherwise (exact when
    either term is absent).  A step is exp(-i dt V/2) exp(-i dt T)
    exp(-i dt V/2), so a potential-only H takes two half phases.  The
    per-row phasors come from ``_phasors``.  Rows of ``amps`` may be
    overwritten; returns the evolved array.
    """
    if h.is_zero:
        return amps
    if phases is not None:
        _apply_split_step(amps, *phases)
        return amps
    live = np.flatnonzero(tau > 0)
    t = tau[live]
    if cap is None or h.potential_is_zero or not h.kinetic:
        steps = np.ones(live.size, dtype=np.int64)
    else:
        steps = np.maximum(1, np.ceil(t / cap - 1e-12)).astype(np.int64)
    # rows needing the most substeps first: those still needing one are a prefix
    order = np.argsort(-steps, kind="stable")
    live, t, steps = live[order], t[order], steps[order]
    dt = t / steps
    exp_v = None if h.potential_is_zero else _phasors(dt, h.potential)
    exp_t = _phasors(dt, h.grid.k2, even=True) if h.kinetic else None
    sub = amps[live]
    for s in range(int(steps.max(initial=0))):
        m = int(np.count_nonzero(steps > s))
        _apply_split_step(sub[:m], *(None if e is None else e[:m] for e in (exp_v, exp_t)))
    amps[live] = sub
    return amps


def _hit_rows(amps, grid, alpha, centers, out=None):
    """Row r of amps times the raw hit (alpha/pi)^(1/4) exp(-(alpha/2)(x - centers[r])^2).

    ``out`` may be amps itself.
    """
    factor = (alpha / np.pi) ** 0.25 * np.exp(-0.5 * alpha * (grid.x - centers[:, None]) ** 2)
    return np.multiply(amps, factor, out=out)


def _flow_rows(amps, grid, lam, dt, dxi, out=None, buf=None):
    """Row r of amps times the flow exp(sqrt(lam) x dxi[r] - lam dt x^2).

    ``out`` may be amps itself, and ``buf`` a (rows, n) float scratch array
    for the exponent.  Raises StepTooLargeError when a realized exponent
    would overflow; its maximum over x is dxi^2 / (4 dt), so rows with
    dxi^2 <= 4 dt * limit need no look at the exponent.
    """
    e = np.multiply(dxi[:, None], math.sqrt(lam) * grid.x, out=buf)
    e -= lam * dt * grid.x * grid.x
    if (dxi.size and np.max(dxi * dxi) > 4.0 * dt * _EXP_OVERFLOW_LIMIT
            and e.max() > _EXP_OVERFLOW_LIMIT):
        raise StepTooLargeError("collapse-flow exponent would overflow")
    np.exp(e, out=e)
    return np.multiply(amps, e, out=out)


def _evolve_one(psi, h, duration, cap):
    """_unitary_rows on psi as a batch of one; psi itself when nothing moves."""
    if duration < 0:
        raise InvalidParameterError("the duration of a unitary must be nonnegative")
    if psi.grid != h.grid:
        raise GridMismatchError("state and Hamiltonian grids differ")
    if duration == 0 or h.is_zero:
        return psi
    amps = np.array(psi.amplitudes[None, :], dtype=np.complex128)
    out = _unitary_rows(amps, h, np.array([float(duration)]), cap)
    return WaveFunction(psi.grid, out[0], psi.label)


def schrodinger_step(psi, h, dt):
    """One symmetric split step exp(-i dt V/2) exp(-i dt T) exp(-i dt V/2).

    Unitary up to roundoff: the potential phases are diagonal and the
    kinetic phase acts in the Fourier domain, where the DFT preserves the
    rectangle-rule norm.  dt = 0 returns the input unchanged; the local
    error of a single step is O(dt^3) for bounded V.  This is _unitary_rows
    on a batch of one.
    """
    return _evolve_one(psi, h, dt, None)


def evolve_unitary(psi, h, duration, max_step=None):
    """exp(-i duration H) psi, composing split steps no longer than max_step.

    For V = 0 the kinetic phase is exact at any duration, so a single step
    is used; likewise a pure potential phase.  Only the mixed case is
    substepped (default cap DEFAULT_UNITARY_SUBSTEP).  This is
    _unitary_rows on a batch of one, as the engine applies it to a row.
    """
    _validate_substep(max_step)
    return _evolve_one(psi, h, duration, _substep_cap(max_step))


def gaussian_hit(psi, center, alpha):
    """Raw GRW hit: multiply by (alpha/pi)^(1/4) exp(-(alpha/2)(x-center)^2).

    The output is unnormalized (label 'raw'); its squared norm equals the
    flash density at ``center`` when psi is normalized.  This is _hit_rows
    on a batch of one.
    """
    if alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    out = _hit_rows(psi.amplitudes[None, :], psi.grid, alpha, np.array([float(center)]))
    return WaveFunction(psi.grid, out[0], RAW)


def _check_flow_budget(grid, lam, dt):
    """StepTooLargeError unless lam * max(x^2) * dt fits the overflow budget."""
    x2max = max(grid.x_min**2, grid.x_max**2)
    if lam * x2max * dt > _EXP_OVERFLOW_LIMIT:
        raise StepTooLargeError(
            "lam * x_max^2 * dt exceeds the overflow budget; shrink the step "
            "or the window")


def collapse_flow(psi, c, dxi, dt):
    """Exact Gaussian collapse flow exp(sqrt(lam) x dxi - lam x^2 dt).

    This is the closed-form solution of the stochastic part of the
    diffusion collapse equation over an interval with Wiener increment
    ``dxi`` and duration ``dt``; there is no time-stepping error, and the
    flow composes additively in (dxi, dt).  This is _flow_rows on a batch
    of one.

    Raises StepTooLargeError when lam * max(x^2) * dt exceeds the
    floating-point overflow budget, or when the realized exponent would
    overflow for the given dxi.
    """
    if dt < 0:
        raise InvalidParameterError("dt must be nonnegative")
    _check_flow_budget(psi.grid, c.lam, dt)
    out = _flow_rows(psi.amplitudes[None, :], psi.grid, c.lam, dt, np.array([float(dxi)]))
    return WaveFunction(psi.grid, out[0], RAW)


def position_mean(psi):
    """<x> of the normalized density of psi."""
    return float(position_moments(psi.amplitudes[None, :], psi.grid)[0][0])


def position_variance(psi):
    return float(position_moments(psi.amplitudes[None, :], psi.grid)[1][0])


def position_moments(amps, grid):
    """<x> and the position variance of each row of (rows, n) amplitudes.

    Raises DegenerateStateError if any row vanishes.
    """
    d = np.abs(amps) ** 2
    total = d.sum(axis=1)
    if not np.all(total > 0):
        raise DegenerateStateError("a vanishing state has no position moments")
    mean = (grid.x * d).sum(axis=1) / total
    var = ((grid.x - mean[:, None]) ** 2 * d).sum(axis=1) / total
    return mean, var


def boundary_mass(psi):
    """Fraction of |psi|^2 in the outer 10% of the window (5% per side).

    Used as a run diagnostic: periodic boundaries are only valid while
    this stays negligible.
    """
    return float(_boundary_masses(psi.amplitudes[None, :], psi.grid)[0])


def _boundary_masses(amps, grid):
    """boundary_mass of each row of (rows, n) amplitudes; 0 for a zero row.

    The fraction is scale-invariant, so raw and normalized rows agree.
    """
    length = grid.x_max - grid.x_min
    lo = grid.x_min + 0.05 * length
    hi = grid.x_max - 0.05 * length
    d = np.abs(amps) ** 2
    total = d.sum(axis=1)
    outer = d[:, (grid.x < lo) | (grid.x > hi)].sum(axis=1)
    return np.divide(outer, total, out=np.zeros_like(total), where=total > 0)


def spectral_derivative(psi, order=1):
    """order-th spatial derivative via the Fourier multiplier (i k)^order."""
    mult = (1j * psi.grid.k) ** order
    out = scipy.fft.ifft(mult * scipy.fft.fft(psi.amplitudes))
    return WaveFunction(psi.grid, out, RAW)


def nyquist_mass_fraction(psi):
    """Spectral mass fraction in the top decile of |k| (aliasing diagnostic)."""
    spec = np.abs(scipy.fft.fft(psi.amplitudes)) ** 2
    total = spec.sum()
    if not (total > 0):
        return 0.0
    kabs = np.abs(psi.grid.k)
    cut = 0.9 * kabs.max()
    return float(spec[kabs >= cut].sum() / total)
