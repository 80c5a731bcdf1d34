"""Independent numerical oracles used by the test suite.

Each oracle recomputes a quantity through a route that shares no code
(and, where possible, no algorithm) with the implementation under test:

* ``cell_probability`` integrates a channel density over one detector
  cell with Gauss-Legendre quadrature of doubling order
  (``integrate_cell_gl``); it referees the closed-form cell integrals of
  ``escatter.geometry``.
* ``interference_cell_integrals`` is the closed-form cross term
  2 pi int f g sin dtheta, which ``escatter.geometry`` does not need; it
  closes the cell-by-cell identity (f-g)^2 = f^2 + g^2 - 2 f g.
* ``kernel_element_oracle`` evaluates the meridian density-matrix kernel
  by brute-force 2-D quadrature in polar momentum coordinates, with the
  azimuthal integral done directly -- no Bessel function anywhere.
* ``meridian_matrix_oracle`` assembles the meridian density matrix one
  element at a time from ``kernel_element`` (direct J per element, as the
  package did before its J(mu) table); it referees the table and the
  broadcast band assembly, while ``kernel_element_oracle`` referees the
  element itself.
* ``charpoly_spectrum`` finds eigenvalues from characteristic-polynomial
  coefficients (Faddeev-LeVerrier recursion) and mpmath's
  Durand-Kerner polynomial root finder, which shares nothing with the
  symmetric eigensolver used by the package.
* ``postselect_gap_oracle`` is the fine-grid limit of the
  antiparallel-parallel detection-entropy gap on a band below the
  equator, from adaptive quadrature of the closed-form channel densities
  instead of per-cell sums.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad

from escatter.amplitudes import differential_probability
from escatter.density_matrix import kernel_element
from escatter.errors import NumericalError
from escatter.geometry import GridKind

#: wave-number calibration that reproduces the benchmark entropy tables
CALIBRATED_KSCALE = math.sqrt(2.0)


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def integrate_cell_gl(fn, lo: float, hi: float, rel_tol: float = 1e-10,
                      start_order: int = 8, max_order: int = 1024) -> float:
    """Integrate a smooth density over one cell, doubling the
    Gauss-Legendre order until two consecutive estimates agree to
    ``rel_tol`` (relative)."""
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    prev = None
    order = start_order
    while order <= max_order:
        x, w = _gl(order)
        val = hw * float(np.dot(w, fn(mid + hw * x)))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            if not math.isfinite(val):
                raise NumericalError(f"non-finite cell integral on [{lo}, {hi}]")
            return val
        prev = val
        order *= 2
    raise NumericalError(
        f"cell quadrature did not converge to {rel_tol:g} on [{lo}, {hi}]")


def cell_probability(grid, i: int, ctx, channel) -> float:
    """Unnormalized probability of cell ``i``: 2 pi * integral over the cell
    of p(theta, channel) sin(theta) dtheta.

    Equator-ring cells are azimuthal and exactly uniform, so they carry
    equal weight by construction.
    """
    if not 0 <= i < grid.n_cells:
        raise IndexError(f"cell index {i} out of range [0, {grid.n_cells})")
    if grid.kind is GridKind.EQUATOR_RING:
        return 1.0 / grid.n_cells
    lo = grid.theta_lo + i * grid.delta_theta
    hi = grid.theta_lo + (i + 1) * grid.delta_theta

    def density(theta: np.ndarray) -> np.ndarray:
        return 2.0 * math.pi * differential_probability(theta, ctx.K, channel) \
            * np.sin(theta)

    return integrate_cell_gl(density, lo, hi)


def interference_cell_integrals(edges: np.ndarray, K: float) -> np.ndarray:
    """Per-cell 2 pi * integral f g sin dtheta (the exchange cross term).

    The antiderivative is ln(s / (1 - s)) / (8 K^4) with s = sin^2(theta/2);
    s and 1 - s = cos^2(theta/2) are each formed directly so both stay
    relatively accurate near their zeros.
    """
    s = np.sin(0.5 * edges) ** 2
    cs = np.cos(0.5 * edges) ** 2
    at = 0.5 * np.log(cs / s)          # atanh(cos theta), stable via s, 1-s
    c = math.pi / (4.0 * K ** 4)
    return 2.0 * c * (at[:-1] - at[1:])


def kernel_element_oracle(q: float, q_prime: float, ctx,
                          n_radial: int = 4000, n_phi: int = 256) -> float:
    """Meridian kernel by direct (q'', phi) quadrature, Bessel-free.

    Integrates q''^-3 * exp(-(q^2+q'^2)/(4 s^2) - (q''^2 - (q+q') q'' cos
    phi)/(2 s^2)) over the physical shell and the full azimuth.  The
    exponent is <= 0 wherever the integrand peaks, so plain exp() is safe.
    """
    sig = ctx.sigma_k
    sig2 = sig * sig
    mu = 0.5 * (q + q_prime)
    lo = max(ctx.K * ctx.epsilon, mu - 45.0 * sig)
    hi = min(2.0 * ctx.K, mu + 45.0 * sig)
    if hi <= lo:
        return 0.0
    xr, wr = _gl(n_radial)
    qq = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xr     # radial nodes
    wq = 0.5 * (hi - lo) * wr

    # azimuthal window: the integrand falls off like exp(-z phi^2 / 2)
    # with z = (q+q') q'' / (2 s^2); 20/sqrt(z) spans ~200 decades.
    z_min = (q + q_prime) * float(qq.min()) / (2.0 * sig2)
    phi_max = min(math.pi, 20.0 / math.sqrt(max(z_min, 1.0)))
    xp, wp = _gl(n_phi)
    phi = 0.5 * phi_max * (xp + 1.0)
    wphi = 0.5 * phi_max * wp

    const = -(q * q + q_prime * q_prime) / (4.0 * sig2)
    total = 0.0
    for qa, wa in zip(qq, wq):
        expo = const + (-qa * qa + (q + q_prime) * qa * np.cos(phi)) / (2.0 * sig2)
        phi_int = 2.0 * float(np.dot(wphi, np.exp(expo)))  # both half-azimuths
        total += wa * qa ** (-3.0) * phi_int
    return total


def diagonal_convolution_oracle(q: float, ctx, n_radial: int = 4000,
                                n_phi: int = 256) -> float:
    """Diagonal kernel element as a plain 1-D Gaussian smoothing of
    |f|^2 = q''^-4 over the shell, with the azimuthal factor evaluated by
    direct phi quadrature (special case of the 2-D oracle)."""
    return kernel_element_oracle(q, q, ctx, n_radial=n_radial, n_phi=n_phi)


def meridian_matrix_oracle(ctx, n_grid: int) -> np.ndarray:
    """Trace-normalized meridian density matrix, element by element.

    Same theta grid, measure and 45 sigma_k band as
    ``escatter.density_matrix.build_meridian_matrix``, but every band
    element is its own ``kernel_element`` call in a per-pair scan that
    stops at the first element past the band.
    """
    lo, hi = ctx.epsilon, math.pi - ctx.epsilon
    h = (hi - lo) / n_grid
    theta = lo + (np.arange(n_grid) + 0.5) * h
    q = 2.0 * ctx.K * np.sin(0.5 * theta)
    measure = ctx.K ** 2 * np.sin(theta) * h
    sqrt_mu = np.sqrt(measure)

    band = 45.0 * ctx.sigma_k
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
    return rho / float(np.trace(rho))


def charpoly_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues via characteristic-polynomial roots, descending.

    Float entries are dyadic rationals, so scaling by the largest
    denominator turns the matrix into exact integers; the
    Faddeev-LeVerrier recursion M_1 = B, c_1 = -tr M_1,
    M_{k+1} = B (M_k + c_k I), c_{k+1} = -tr(M_{k+1}) / (k+1) then yields
    exact integer coefficients, and the roots come from mpmath at high
    working precision.  The roots are sought in y = x / scale
    (coefficient k divided by scale^k): they are then the eigenvalues
    themselves and lie near the unit circle, where the root finder
    starts, which cuts its steps about threefold.  The route shares nothing with a symmetric
    eigensolver and stays accurate even for (near-)degenerate spectra,
    where float-coefficient polynomial roots lose half the digits.
    Intended for small (dim <= ~10) matrices.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    fracs = [[Fraction(float(a[i, j])) for j in range(n)] for i in range(n)]
    scale = max(f.denominator for row in fracs for f in row)
    b = [[int(f * scale) for f in row] for row in fracs]

    coeffs = [1]
    m = [row[:] for row in b]
    for k in range(1, n + 1):
        tr = sum(m[i][i] for i in range(n))
        assert tr % k == 0  # guaranteed by the recursion over integers
        c = -(tr // k)
        coeffs.append(c)
        if k < n:
            for i in range(n):
                m[i][i] += c
            m = [[sum(b[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]

    with mpmath.workdps(60):
        scaled = [mpmath.mpf(c) / mpmath.mpf(scale) ** k
                  for k, c in enumerate(coeffs)]
        roots = mpmath.polyroots(scaled, maxsteps=200, extraprec=120)
        vals = sorted((float(mpmath.re(r)) for r in roots), reverse=True)
    return np.asarray(vals)


def i0e_phi_quadrature(x: float, n_phi: int = 512) -> float:
    """Exponentially scaled modified Bessel function I0(x) e^-x via the
    integral (1/pi) * int_0^pi exp(x (cos phi - 1)) dphi, window-restricted
    for large x."""
    phi_max = min(math.pi, 25.0 / math.sqrt(max(x, 1.0)))
    xp, wp = _gl(n_phi)
    phi = 0.5 * phi_max * (xp + 1.0)
    wphi = 0.5 * phi_max * wp
    val = float(np.dot(wphi, np.exp(x * (np.cos(phi) - 1.0))))
    # the window covers the full integrand for x >= ~60; below that the
    # window is [0, pi] anyway
    return val / math.pi


def postselect_gap_oracle(T: float) -> float:
    """Fine-grid limit of the antiparallel-parallel detection-entropy gap
    (bits) on the post-selection band [pi/2 - T, pi/2].

    On N equal cells of width T/N a channel's discrete entropy is its
    differential entropy in theta minus log2(T/N), up to O(1/N^2); the
    log term is common to both channels and cancels in the gap.  With
    f = 1/sin^2(theta/2) and g = 1/cos^2(theta/2) (the common factor
    1/(4 K^2) cancels on normalisation) the densities are

    * parallel:      |f - g|^2 sin(theta) = 16 cos^2(theta) / sin^3(theta)
    * antiparallel:  f^2 sin(theta) and g^2 sin(theta), two branches
      normalised jointly.

    Each entropy is one adaptive ``scipy.integrate.quad`` of -p ln p.
    """
    if not 0.0 < T < 0.5 * math.pi:
        raise ValueError(f"band width {T!r} outside (0, pi/2)")
    lo, hi = 0.5 * math.pi - T, 0.5 * math.pi

    def entropy_bits(densities) -> float:
        z = sum(quad(d, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for d in densities)

        def minus_p_ln_p(theta: float) -> float:
            ps = [d(theta) / z for d in densities]
            return -sum(p * math.log(p) for p in ps if p > 0.0)

        h = quad(minus_p_ln_p, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        return h / math.log(2.0)

    def parallel(theta: float) -> float:
        return 16.0 * math.cos(theta) ** 2 / math.sin(theta) ** 3

    def direct(theta: float) -> float:
        return math.sin(theta) / math.sin(0.5 * theta) ** 4

    def exchange(theta: float) -> float:
        return math.sin(theta) / math.cos(0.5 * theta) ** 4

    return entropy_bits((direct, exchange)) - entropy_bits((parallel,))
