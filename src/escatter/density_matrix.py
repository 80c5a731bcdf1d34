"""Reduced one-electron density matrix on a post-selected meridian.

The pair is prepared as a Gaussian wave packet of width ``sigma_k`` in
relative momentum; post-selecting detections on a single meridian leaves
a real symmetric kernel rho(q, q') in the momentum-transfer variable
q = 2 K sin(theta/2).  The azimuthal integral of the packet overlap
reduces to a modified Bessel function, and combining every exponential
factor *before* exponentiation keeps all exponents <= 0:

    rho(q,q') = 2 pi exp(-(q-q')^2 / 8 sigma_k^2)
                * int dq'' q''^-3 I0e((q+q') q'' / 2 sigma_k^2)
                          exp(-(q'' - (q+q')/2)^2 / 2 sigma_k^2)

where I0e is the exponentially scaled Bessel function I0(x) e^-x and the
q''^-3 carries one power from the radial measure and q''^-4 = |f|^2 from
the Coulomb amplitude f = 1/q''^2.  The same completing-the-square shows
the diagonal is a plain Gaussian smoothing of |f|^2.

Discretization uses midpoint cells in theta with the spherical measure
folded in symmetrically (rho_ij = sqrt(mu_i mu_j) K(q_i, q_j) with
mu_i = K^2 sin(theta_i) h, since q dq = K^2 sin(theta) dtheta), so the
matrix is the measure-weighted sampling of the integral operator: its
diagonal reproduces ring probabilities and its eigenvalues approximate
the operator spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import i0e

from .errors import NumericalError
from .kinematics import ScatterContext

# exp(-(q-q')^2/8 sigma^2) at 45 sigma is ~1e-110: treat as exactly zero.
_BAND_SIGMAS = 45.0
# Gaussian window half-width for the q'' quadrature; exp(-40^2/2) ~ 1e-348.
_WINDOW_SIGMAS = 40.0

_GL_START = 64
_GL_MAX = 4096
_GL_RTOL = 1e-9
_gl_nodes = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Discretized reduced density matrix on a meridian theta-grid."""

    theta_grid: np.ndarray
    q_grid: np.ndarray
    rho: np.ndarray
    measure: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        scale = float(np.max(np.abs(rho))) if rho.size else 0.0
        if scale > 0.0 and float(np.max(np.abs(rho - rho.T))) > 1e-12 * scale:
            raise ValueError("density matrix is not symmetric")
        if abs(float(np.trace(rho)) - 1.0) > 1e-9:
            raise ValueError(
                f"trace = {float(np.trace(rho))!r}, expected 1 after normalization")


def _kernel_integral(q: float, q_prime: float, ctx: ScatterContext) -> float:
    """The q'' integral of the kernel, window-restricted and GL-refined."""
    sig2 = ctx.sigma_k ** 2
    mu = 0.5 * (q + q_prime)
    lo = max(ctx.K * ctx.epsilon, mu - _WINDOW_SIGMAS * ctx.sigma_k)
    hi = min(2.0 * ctx.K, mu + _WINDOW_SIGMAS * ctx.sigma_k)
    if hi <= lo:
        return 0.0
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    bessel_scale = (q + q_prime) / (2.0 * sig2)

    prev = None
    n = _GL_START
    while n <= _GL_MAX:
        x, w = _gl_nodes(n)
        qq = mid + half * x
        expo = -((qq - mu) ** 2) / (2.0 * sig2)
        vals = qq ** (-3.0) * i0e(bessel_scale * qq) * np.exp(expo)
        est = half * float(np.dot(w, vals))
        if not math.isfinite(est):
            raise NumericalError(
                f"kernel integral overflowed at q={q!r}, q'={q_prime!r} "
                f"(max exponent {float(np.max(expo))!r})")
        if prev is not None and abs(est - prev) <= _GL_RTOL * max(abs(est), 1e-300):
            return est
        prev = est
        n *= 2
    raise NumericalError(
        f"kernel integral did not converge at q={q!r}, q'={q_prime!r}")


def kernel_element(q: float, q_prime: float, ctx: ScatterContext) -> float:
    """One matrix element rho(q, q') of the meridian kernel (unnormalized).

    All exponentials are combined before evaluation (scaled Bessel plus
    completed square), so every exponent is <= 0 and the value never
    overflows for physical arguments.
    """
    q_min = ctx.K * ctx.epsilon
    if q < q_min or q_prime < q_min:
        raise ValueError(
            f"momentum transfer below forward cutoff {q_min!r}: "
            f"q={q!r}, q'={q_prime!r}")
    band_expo = -((q - q_prime) ** 2) / (8.0 * ctx.sigma_k ** 2)
    integral = _kernel_integral(q, q_prime, ctx)
    return 2.0 * math.pi * math.exp(band_expo) * integral


def build_meridian_matrix(ctx: ScatterContext, n_grid: int,
                          grid_cap: int = 4096) -> DensityMatrix:
    """Assemble and trace-normalize the meridian density matrix.

    The theta grid is ``n_grid`` midpoints uniform over the accessible
    range [epsilon, pi - epsilon].  Elements farther than 45 sigma_k from
    the diagonal in q are set to exactly zero (they are < 1e-100 of the
    peak), which keeps assembly O(n * bandwidth).
    """
    if n_grid < 2:
        raise ValueError(f"need at least a 2-point grid, got {n_grid}")
    if n_grid > grid_cap:
        raise ValueError(
            f"n_grid = {n_grid} exceeds the dense-diagonalization cap "
            f"{grid_cap}; subsample the grid (or raise the cap)")

    lo, hi = ctx.epsilon, math.pi - ctx.epsilon
    h = (hi - lo) / n_grid
    theta = lo + (np.arange(n_grid) + 0.5) * h
    q = 2.0 * ctx.K * np.sin(0.5 * theta)
    measure = ctx.K ** 2 * np.sin(theta) * h  # q dq = K^2 sin(theta) dtheta
    sqrt_mu = np.sqrt(measure)

    band = _BAND_SIGMAS * ctx.sigma_k
    rho = np.zeros((n_grid, n_grid))
    for i in range(n_grid):
        rho[i, i] = measure[i] * kernel_element(float(q[i]), float(q[i]), ctx)
        for j in range(i + 1, n_grid):
            if q[j] - q[i] > band:
                break  # q is increasing in j; everything further is zero
            val = sqrt_mu[i] * sqrt_mu[j] * kernel_element(
                float(q[i]), float(q[j]), ctx)
            rho[i, j] = val
            rho[j, i] = val

    trace = float(np.trace(rho))
    if not (math.isfinite(trace) and trace > 0.0):
        raise NumericalError(f"matrix trace is {trace!r}, cannot normalize")
    rho /= trace
    return DensityMatrix(theta_grid=theta, q_grid=q, rho=rho, measure=measure)


def eigen_spectrum(dm: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the density matrix, descending, clamped at zero.

    Values in [-1e-10, 0) are rounded up to 0; anything more negative
    means the matrix is not positive semidefinite and raises.
    """
    lam = np.linalg.eigh(dm.rho)[0][::-1].copy()
    lam_min = float(lam.min())
    if lam_min < -1e-10:
        raise NumericalError(
            f"matrix is not positive semidefinite: lambda_min = {lam_min!r}")
    lam[lam < 0.0] = 0.0
    total = float(lam.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(
            f"eigenvalue sum {total!r} deviates from unit trace")
    return lam


def von_neumann_entropy(spectrum) -> float:
    """S = -sum lambda log2 lambda in bits, with 0 log 0 := 0."""
    lam = np.asarray(spectrum, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("negative eigenvalue: spectrum is not a valid state")
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        raise ValueError(
            f"eigenvalues sum to {float(lam.sum())!r}, expected 1")
    pos = lam[lam > 0.0]
    return float(-(pos * np.log2(pos)).sum())

