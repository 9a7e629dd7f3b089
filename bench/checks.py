"""Correctness checks on collapsim's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
The checks use closed forms, required properties of the method, or the
benchmark's own arithmetic on the program's outputs, never a stored copy
of an earlier output.
"""

import math

import numpy as np


def _fail(ok, message):
    return [] if ok else [message]


def ess(weights):
    """Effective sample size (sum w)^2 / sum w^2."""
    w = np.asarray(weights, dtype=float)
    return float(w.sum() ** 2 / (w * w).sum())


def poisson_count(total, n, mu, t, z=4.0):
    """Total jumps of n trajectories within z SE of Poisson(n mu t)."""
    expected = n * mu * t
    gap = abs(total - expected) / math.sqrt(expected)
    return _fail(gap <= z, f"jump count {total} is {gap:.2f} SE from {expected:g}")


def unit_norms(states, dx, tol):
    """Every row of states (N, n) has squared norm 1 within tol."""
    n2 = (np.abs(states) ** 2).sum(axis=1) * dx
    worst = float(np.max(np.abs(n2 - 1.0)))
    return _fail(worst <= tol, f"squared norm off by {worst:.3g} (> {tol:g})")


def density_matrix(states, weights):
    """(1/N) sum_i w_i |phi_i><phi_i| as one weighted matmul."""
    a = np.asarray(states, dtype=np.complex128)
    w = np.asarray(weights, dtype=float)
    return (a.T * w) @ a.conj() / len(w)


def density_se(states, weights):
    """Entrywise SE of density_matrix, real and imaginary variances pooled."""
    a = np.asarray(states, dtype=np.complex128)
    w = np.asarray(weights, dtype=float)
    n = len(w)
    mean = density_matrix(a, w)
    # E|term|^2 with term_ij = w a_i conj(a_j): sum of w^2 |a_i|^2 |a_j|^2
    p = np.abs(a) ** 2
    second = (p.T * (w * w)) @ p / n
    var = second - np.abs(mean) ** 2
    var = np.maximum(var, 0.0) * n / max(n - 1, 1)
    return np.sqrt(var / n)


def matches(actual, expected, rtol, what):
    """max |actual - expected| within rtol of max |expected|."""
    scale = float(np.max(np.abs(expected)))
    gap = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    return _fail(gap <= rtol * scale, f"{what} differs by {gap:.3g} (scale {scale:.3g})")


def master_gap(rho_hat, se, rho_ref, k=5.0):
    """Largest entry gap to the master solution within k SE of that entry."""
    delta = np.abs(rho_hat - rho_ref)
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    gap, s = float(delta[i, j]), float(se[i, j])
    return _fail(gap <= k * s, f"density gap {gap:.3g} exceeds {k:g} SE ({s:.3g})")


def diosi_master(psi0, potential, dx, lam, t, steps):
    """Diosi master equation solved apart from the program, by fixed-step RK4.

    d rho/dt = -i[H, rho] - (lam/2)(x - x')^2 rho with H = -1/2 d^2/dx^2 + V
    on the periodic grid, the Laplacian taken through the DFT matrix.
    """
    n = len(psi0)
    x = dx * np.arange(n)  # only differences of x enter
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kinetic = np.fft.ifft(0.5 * k[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0)
    h = 0.5 * (kinetic + kinetic.conj().T) + np.diag(potential)
    decay = 0.5 * lam * (x[:, None] - x[None, :]) ** 2
    rho = np.outer(psi0, np.conj(psi0))
    dt = t / steps

    def rhs(r):
        return -1j * (h @ r - r @ h) - decay * r

    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def unit_trace(rho, dx, tol=1e-8):
    err = abs(float(np.real(np.trace(rho))) * dx - 1.0)
    return _fail(err <= tol, f"master trace off by {err:.3g}")


def ess_at_least(weights, floor=100.0):
    e = ess(weights)
    return _fail(e >= floor, f"ESS {e:.1f} below {floor:g}")


def overlap(states, ref, dx):
    """min(1, |<ref, phi>|) per row: the overlap-modulus functional."""
    a = np.asarray(states)
    return np.minimum(1.0, np.abs(a @ np.conj(ref)) * dx)


def strong_decrease(dev_coarse, dev_fine, z=2.33):
    """mean |D| falls from the coarse to the fine mesh, paired z >= z."""
    d = np.asarray(dev_coarse) - np.asarray(dev_fine)
    se = float(d.std(ddof=1) / math.sqrt(d.size))
    got = float(d.mean()) / se if se > 0 else 0.0
    return _fail(got >= z, f"strong-error decrease z = {got:.2f} (< {z:g})")


def weak_close(wf, wf_ref, k=3.0):
    """|mean(wf) - mean(wf_ref)| within k pooled SE."""
    wf, wf_ref = np.asarray(wf), np.asarray(wf_ref)
    n = wf.size
    pooled = math.sqrt(wf.var(ddof=1) / n + wf_ref.var(ddof=1) / n)
    gap = abs(float(wf.mean() - wf_ref.mean()))
    return _fail(gap <= k * pooled, f"weak error {gap:.4g} exceeds {k:g} pooled SE ({pooled:.4g})")


def variance_near(var, se, target, z=4.0, what="variance"):
    gap = abs(var - target)
    return _fail(gap <= z * se, f"{what} {var:.4f} is {gap / se:.2f} SE from {target:g}")


def fisher_at_least(pvalues, level):
    """Fisher's combination of k independent p-values at least level.

    -2 sum(log p) is chi-square with 2k degrees of freedom under the null,
    whose tail is exp(-x/2) sum_{i<k} (x/2)^i / i!.
    """
    half = -sum(math.log(q) for q in pvalues)
    p = math.exp(-half) * sum(half ** i / math.factorial(i) for i in range(len(pvalues)))
    return _fail(p >= level, f"combined KS p = {p:.3g} below {level:g} "
                             f"(p-values {', '.join(f'{q:.3g}' for q in pvalues)})")
