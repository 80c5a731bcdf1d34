"""Reduced one-electron density matrix on a post-selected meridian.

The pair is prepared as a Gaussian wave packet of width ``sigma_k`` in
relative momentum; post-selecting detections on a single meridian leaves
a real symmetric kernel rho(q, q') in the momentum-transfer variable
q = 2 K sin(theta/2).  The azimuthal integral of the packet overlap
reduces to a modified Bessel function, and combining every exponential
factor *before* exponentiation keeps all exponents <= 0:

    rho(q,q') = 2 pi exp(-(q-q')^2 / 8 sigma_k^2) J((q+q')/2)

    J(mu) = int dq'' q''^-3 I0e(mu q'' / sigma_k^2)
                    exp(-(q'' - mu)^2 / 2 sigma_k^2)

where I0e is the exponentially scaled Bessel function I0(x) e^-x and the
q''^-3 carries one power from the radial measure and q''^-4 = |f|^2 from
the Coulomb amplitude f = 1/q''^2.  The same completing-the-square shows
the diagonal is a plain Gaussian smoothing of |f|^2.  Every input of the
q'' integral -- window, Bessel argument, Gaussian centre -- depends on q
and q' only through mu = (q+q')/2, so J is a function of one variable.

A matrix build therefore evaluates J once, as a piecewise-Chebyshev
table over the band's range of mu: panels start one sigma_k wide at the
lower end and double in width, each interpolating J at 16 Chebyshev
nodes.  Every build checks every panel against direct J at the 17
Chebyshev extrema interleaving its nodes, to 1e-10 relative, and bisects
the panels that miss; past a fixed number of panel fits it raises
:class:`NumericalError`, so a build takes bounded time.  The band is then
assembled by broadcasting.  :func:`kernel_element` evaluates one element
from direct J.

Discretization uses midpoint cells in theta with the spherical measure
folded in symmetrically (rho_ij = sqrt(mu_i mu_j) K(q_i, q_j) with
mu_i = K^2 sin(theta_i) h, since q dq = K^2 sin(theta) dtheta), so the
matrix is the measure-weighted sampling of the integral operator: its
diagonal reproduces ring probabilities and its eigenvalues approximate
the operator spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev

from .amplitudes import SpinChannel
from .errors import NumericalError
from .geometry import _gl_nodes, channel_domain
from .kinematics import ScatterContext

# exp(-(q-q')^2/8 sigma^2) at 45 sigma is ~1e-110: treat as exactly zero.
_BAND_SIGMAS = 45.0
# Gaussian window half-width for the q'' quadrature; exp(-40^2/2) ~ 1e-348.
_WINDOW_SIGMAS = 40.0

# J(mu) table: Chebyshev nodes per panel, the relative error every panel
# must meet against direct J, and the most panel fits one build may make.
_TABLE_NODES = 16
_TABLE_RTOL = 1e-10
_TABLE_MAX_PANELS = 256
_CHECK_X = chebyshev.chebpts2(_TABLE_NODES + 1)  # extrema of T_16

_GL_START = 64
_GL_MAX = 4096
_GL_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Discretized reduced density matrix on a meridian theta-grid."""

    theta_grid: np.ndarray
    q_grid: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        if not np.isfinite(rho).all():  # NaN fails every comparison below
            raise ValueError("density matrix has non-finite entries")
        scale = float(np.max(np.abs(rho))) if rho.size else 0.0
        if scale > 0.0 and float(np.max(np.abs(rho - rho.T))) > 1e-12 * scale:
            raise ValueError("density matrix is not symmetric")
        if abs(float(np.trace(rho)) - 1.0) > 1e-9:
            raise ValueError(
                f"trace = {float(np.trace(rho))!r}, expected 1 after normalization")


def _gl_doubling(rule: Callable[[np.ndarray, np.ndarray], float],
                 what: str) -> float:
    """Gauss-Legendre doubling: ``rule(x, w)`` is the integral's estimate
    from the n-point nodes x and weights w on [-1, 1].  n starts at 64 and
    doubles until two successive estimates agree to 1e-9 relative; a
    non-finite estimate, or no agreement by 4096 nodes, raises
    :class:`NumericalError` naming ``what``."""
    prev = None
    n = _GL_START
    while n <= _GL_MAX:
        est = rule(*_gl_nodes(n))
        if not math.isfinite(est):
            raise NumericalError(f"{what} is {est!r} with {n} GL nodes")
        if prev is not None and abs(est - prev) <= _GL_RTOL * max(abs(est), 1e-300):
            return est
        prev = est
        n *= 2
    raise NumericalError(
        f"{what} did not converge to {_GL_RTOL:g} relative with {_GL_MAX} GL nodes")


def _kernel_j(mu: float, ctx: ScatterContext) -> float:
    """J(mu), the q'' integral of the kernel, window-restricted and GL-refined."""
    sig2 = ctx.sigma_k ** 2
    lo = max(ctx.K * ctx.epsilon, mu - _WINDOW_SIGMAS * ctx.sigma_k)
    hi = min(2.0 * ctx.K, mu + _WINDOW_SIGMAS * ctx.sigma_k)
    if hi <= lo:
        return 0.0
    # imported here: only vn-compare needs it, and it doubles the CLI's
    # import time
    from scipy.special import i0e

    half = 0.5 * (hi - lo)
    shift = 0.5 * (hi + lo) - mu  # window centre relative to mu
    bessel_scale = mu / sig2

    def rule(x, w):
        # q'' - mu from the node offsets, not as a difference of nearby
        # floats: with mu >> sigma_k, rounding q'' to ulp(mu) would put
        # noise of ulp(mu)/sigma_k into every exponent
        t = shift + half * x
        qq = mu + t
        vals = qq ** (-3.0) * i0e(bessel_scale * qq) * np.exp(-(t * t) / (2.0 * sig2))
        return half * float(np.dot(w, vals))

    return _gl_doubling(rule, f"kernel integral J(mu={mu!r})")


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
    return 2.0 * math.pi * math.exp(band_expo) * _kernel_j(0.5 * (q + q_prime), ctx)


def _kernel_j_table(mu: np.ndarray, ctx: ScatterContext) -> np.ndarray:
    """J at every ``mu``, from a piecewise-Chebyshev table over
    [min mu, max mu] that is checked against direct J before use."""
    mu_lo, mu_hi = float(mu.min()), float(mu.max())
    edges = [mu_lo]
    width = ctx.sigma_k
    while edges[-1] < mu_hi:
        edges.append(min(edges[-1] + width, mu_hi))
        width *= 2.0
    pending = list(zip(edges[:-1], edges[1:]))[::-1]  # leftmost panel last
    panels: list[tuple[float, float, np.ndarray]] = []
    fits = 0
    while pending:
        a, b = pending.pop()
        fits += 1
        if fits > _TABLE_MAX_PANELS:
            raise NumericalError(
                f"J(mu) table missed {_TABLE_RTOL:g} relative after "
                f"{_TABLE_MAX_PANELS} panel fits; last panel [{a!r}, {b!r}]")
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def direct_j(x):  # J at the panel points mid + half * x
            return np.array([_kernel_j(m, ctx) for m in mid + half * x])

        coef = chebyshev.chebinterpolate(direct_j, _TABLE_NODES - 1)
        direct = direct_j(_CHECK_X)
        if np.all(np.abs(chebyshev.chebval(_CHECK_X, coef) - direct)
                  <= _TABLE_RTOL * np.abs(direct)):
            panels.append((a, b, coef))
        else:
            pending += [(mid, b), (a, mid)]

    starts = np.array([a for a, _, _ in panels])
    which = np.searchsorted(starts, mu, side="right") - 1
    out = np.empty_like(mu)
    for k, (a, b, coef) in enumerate(panels):
        sel = which == k
        out[sel] = chebyshev.chebval((2.0 * mu[sel] - (a + b)) / (b - a), coef)
    return out


def build_meridian_matrix(ctx: ScatterContext, n_grid: int,
                          grid_cap: int = 4096) -> DensityMatrix:
    """Assemble and trace-normalize the meridian density matrix.

    The theta grid is ``n_grid`` midpoints uniform over the accessible
    range [epsilon, pi - epsilon].  Elements farther than 45 sigma_k from
    the diagonal in q are set to exactly zero (they are < 1e-100 of the
    peak), which keeps assembly O(n * bandwidth).  A grid whose first
    point q = 2K sin(theta_0/2) lies below the kernel's cutoff K epsilon
    raises ValueError before any kernel work.
    """
    if n_grid < 2:
        raise ValueError(f"need at least a 2-point grid, got {n_grid}")
    if n_grid > grid_cap:
        raise ValueError(
            f"n_grid = {n_grid} exceeds the dense-diagonalization cap "
            f"{grid_cap}; subsample the grid (or raise the cap)")

    lo, hi = channel_domain(ctx, SpinChannel.SPINLESS)
    h = (hi - lo) / n_grid
    theta = lo + (np.arange(n_grid) + 0.5) * h
    q = 2.0 * ctx.K * np.sin(0.5 * theta)
    q_min = ctx.K * ctx.epsilon
    if q[0] < q_min:
        raise ValueError(
            f"first meridian grid point q = 2K sin(theta_0/2) = {float(q[0])!r} "
            f"lies below the kernel's forward cutoff K*epsilon = {q_min!r} "
            f"(epsilon = {ctx.epsilon!r} rad)")
    measure = ctx.K ** 2 * np.sin(theta) * h  # q dq = K^2 sin(theta) dtheta
    sqrt_mu = np.sqrt(measure)

    # Band pairs (i, j >= i): searchsorted bounds them with a rounding
    # margin, and the band test is the subtraction q[j] - q[i] <= band, so
    # the band holds exactly the elements a per-pair scan would keep.
    band = _BAND_SIGMAS * ctx.sigma_k
    idx = np.arange(n_grid)
    counts = np.searchsorted(q, (q + band) * (1.0 + 1e-12), side="right") - idx
    i = np.repeat(idx, counts)
    j = i + np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dq = q[j] - q[i]
    keep = dq <= band
    i, j, dq = i[keep], j[keep], dq[keep]

    vals = (sqrt_mu[i] * sqrt_mu[j] * 2.0 * math.pi
            * np.exp(-(dq * dq) / (8.0 * ctx.sigma_k ** 2))
            * _kernel_j_table(0.5 * (q[i] + q[j]), ctx))
    rho = np.zeros((n_grid, n_grid))
    rho[i, j] = vals
    rho[j, i] = vals

    trace = float(np.trace(rho))
    if not (math.isfinite(trace) and trace > 0.0):
        raise NumericalError(f"matrix trace is {trace!r}, cannot normalize")
    rho /= trace
    return DensityMatrix(theta_grid=theta, q_grid=q, rho=rho)


def eigen_spectrum(dm: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the density matrix, descending, clamped at zero.

    Values in [-1e-10, 0) are rounded up to 0; anything more negative
    means the matrix is not positive semidefinite and raises.
    """
    lam = np.linalg.eigvalsh(dm.rho)[::-1].copy()
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
