"""Independent numerical oracles used by the test suite.

Each oracle recomputes a quantity through a route that shares no code
(and, where possible, no algorithm) with the implementation under test:

* ``direct_amplitude``, ``exchange_amplitude`` and
  ``differential_probability`` are the Coulomb amplitudes f, g and the
  channel densities |f|^2, |f-g|^2, |f|^2 + |g|^2 pointwise; the package
  only needs their closed-form cell integrals.
* ``direct_exchange_cell_integrals_np``, ``parallel_cell_integrals_np``
  and ``channel_cell_integrals_np`` are the closed-form cell integrals of
  ``escatter.geometry`` vectorised with numpy, as the package computed
  them before it ran on the ``math`` module alone; the streamed oracle
  below sums them, and they referee the package's loops to rounding.
* ``cell_probability`` integrates a channel density over one detector
  cell with Gauss-Legendre quadrature of doubling order
  (``integrate_cell_gl``); it referees the closed-form cell integrals of
  ``escatter.geometry``.
* ``interference_cell_integrals`` is the closed-form cross term
  2 pi int f g sin dtheta, which ``escatter.geometry`` does not need; it
  closes the cell-by-cell identity (f-g)^2 = f^2 + g^2 - 2 f g.
* ``gauss_legendre_mp`` is the n-point Gauss-Legendre rule at 50 digits,
  the Legendre roots from mpmath's root finder; it referees the package's
  pure-Python rule, as numpy's ``leggauss`` (itself 7e-14 off in the
  weights next to +-1 at 20 nodes) cannot to rounding.
* ``kernel_element_oracle`` evaluates the meridian density-matrix kernel
  by brute-force 2-D quadrature in polar momentum coordinates, with the
  azimuthal integral done directly -- no Bessel function anywhere.
* ``kernel_j_oracle`` is the meridian kernel's 1-D integral J(mu) for
  one mu at a time: the same Gauss-Legendre doubling as
  ``escatter.density_matrix._kernel_j``, in a scalar loop, with scipy's
  ``i0e``.  Given the package's window the batched J must equal it bit
  for bit; its default 40 sigma_k window, whose edge underflows,
  referees the package's narrower one, and so does ``kernel_j_mp``, the
  same integral to 30 digits with mpmath.
* ``meridian_matrix_oracle`` assembles the meridian density matrix one
  element at a time from ``kernel_j_oracle`` (direct J per element, as
  the package did before its J(mu) table); it referees the table and the
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
* ``streamed_weight_entropy`` is the exact discrete detection entropy of
  a grid: every cell's weight, in chunks of ``CHUNK_CELLS`` (the
  package's reducer before it summed the middle of a grid by
  Euler-Maclaurin).  It referees ``escatter.entropy``'s O(1) reducer on
  the same cell weights.
* ``parallel_cell_integral_mp`` and ``direct_exchange_cell_integrals_mp``
  are the closed-form cell integrals at 50 digits in mpmath, as
  differences of the antiderivatives on the exact cell [mid - hw,
  mid + hw]; they referee the cancellation-free float forms.
  ``telescoped_weight_mp`` is a grid's total weight the same way, from
  its first and last edge: the cells tile that span, so their sum
  telescopes.
* ``continuous_limit_oracle`` is the continuous-limit (n -> infinity)
  ring or sphere entropy of a channel, from adaptive quadrature in
  u = ln(theta) with a breakpoint at every octave of theta and the
  channel densities written out in closed form.  It referees
  ``escatter.entropy``'s continuous-limit forms, a discrete sum of
  closed-form cell integrals on 2^50 cells, which share neither the
  variable, the rule nor the density code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import i0e

from escatter.amplitudes import SpinChannel
from escatter.errors import NumericalError
from escatter.geometry import GridKind

#: wave-number calibration that reproduces the benchmark entropy tables
CALIBRATED_KSCALE = math.sqrt(2.0)


def direct_amplitude(theta, K):
    """Direct Coulomb amplitude f(theta) = 1 / (4 K^2 sin^2(theta/2)).

    Singular at theta = 0; callers must stay above the kinematic cutoff
    angle.  Accepts scalars or arrays in (0, pi].
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta > np.pi):
        raise ValueError("direct amplitude requires 0 < theta <= pi "
                         "(singular in the forward direction)")
    s = np.sin(0.5 * theta)
    out = 1.0 / (4.0 * K * K * s * s)
    return float(out) if out.ndim == 0 else out


def exchange_amplitude(theta, K):
    """Exchange amplitude g(theta) = f(pi - theta) = 1 / (4 K^2 cos^2(theta/2)).

    Singular at theta = pi.  Accepts scalars or arrays in [0, pi).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta >= np.pi):
        raise ValueError("exchange amplitude requires 0 <= theta < pi "
                         "(singular in the backward direction)")
    c = np.cos(0.5 * theta)
    out = 1.0 / (4.0 * K * K * c * c)
    return float(out) if out.ndim == 0 else out


def differential_probability(theta, K, channel: SpinChannel):
    """Unnormalized angular detection density p(theta) for one channel.

    SPINLESS     -> |f|^2 (valid on (0, pi])
    PARALLEL     -> |f - g|^2 (valid on (0, pi))
    ANTIPARALLEL -> |f|^2 + |g|^2 (valid on (0, pi))

    The per-momentum degeneracy weights of the spin channels are handled
    by the entropy routines' normalizations, not here.
    """
    if channel is SpinChannel.SPINLESS:
        f = direct_amplitude(theta, K)
        return f * f
    if channel is SpinChannel.PARALLEL:
        f = direct_amplitude(theta, K)
        g = exchange_amplitude(theta, K)
        d = f - g
        return d * d
    if channel is SpinChannel.ANTIPARALLEL:
        f = direct_amplitude(theta, K)
        g = exchange_amplitude(theta, K)
        return f * f + g * g
    raise ValueError(f"unknown spin channel: {channel!r}")


def _half_angle_s_np(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin^2(theta/2), cos^2(theta/2)), each formed directly."""
    half = 0.5 * theta
    sh = np.sin(half)
    ch = np.cos(half)
    return sh * sh, ch * ch


def direct_exchange_cell_integrals_np(mid, hw: float, K: float
                                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (2 pi int f^2 sin, 2 pi int g^2 sin) over the cells
    [mid - hw, mid + hw], as numpy arrays."""
    mid = np.asarray(mid, dtype=float)
    s_a, c_a = _half_angle_s_np(mid - hw)
    s_b, c_b = _half_angle_s_np(mid + hw)
    ds = np.sin(mid) * np.sin(hw)  # s_b - s_a, without cancellation
    c = math.pi / (4.0 * K ** 4)
    return c * ds / (s_a * s_b), c * ds / (c_a * c_b)


def _atanh_minus_identity_np(y: np.ndarray) -> np.ndarray:
    """atanh(y) - y: its series below |y| = 0.25, arctanh above."""
    y2 = y * y
    series = np.zeros_like(y2)
    for k in range(14, 0, -1):  # Horner in y^2
        series = y2 * (1.0 / (2 * k + 1) + series)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(y) < 0.25, y * series, np.arctanh(y) - y)


def parallel_cell_integrals_np(mid, hw, K: float) -> np.ndarray:
    """Per-cell 2 pi int (f-g)^2 sin dtheta over the cells
    [mid - hw, mid + hw], as a numpy array (mid or hw may be arrays)."""
    mid = np.asarray(mid, dtype=float)
    sm, cm = np.sin(mid), np.cos(mid)
    sh, ch = np.sin(hw), np.cos(hw)
    u_a, u_b = cm * ch + sm * sh, cm * ch - sm * sh
    sin_a, sin_b = sm * ch - cm * sh, sm * ch + cm * sh
    y = -2.0 * sm * sh / (sh * sh + sm * sm)
    cot2 = (u_a / sin_a) ** 2 + (u_b / sin_b) ** 2
    c = math.pi / (4.0 * K ** 4)
    return 4.0 * c * (_atanh_minus_identity_np(y) - y * cot2)


def channel_cell_integrals_np(mid, hw: float, K: float,
                              channel: SpinChannel) -> np.ndarray:
    """Per-cell 2 pi int p(theta) sin(theta) dtheta of one channel, as a
    numpy array."""
    if channel is SpinChannel.SPINLESS:
        return direct_exchange_cell_integrals_np(mid, hw, K)[0]
    if channel is SpinChannel.PARALLEL:
        return parallel_cell_integrals_np(mid, hw, K)
    F, G = direct_exchange_cell_integrals_np(mid, hw, K)
    return F + G


@lru_cache(maxsize=32)
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
    """
    if not 0 <= i < grid.n_cells:
        raise IndexError(f"cell index {i} out of range [0, {grid.n_cells})")
    lo = grid.theta_lo + i * grid.delta_theta
    hi = grid.theta_lo + (i + 1) * grid.delta_theta

    def density(theta: np.ndarray) -> np.ndarray:
        return 2.0 * math.pi * differential_probability(theta, ctx.K, channel) \
            * np.sin(theta)

    return integrate_cell_gl(density, lo, hi)


def grid_edges(grid, i0: int = 0, i1: int | None = None) -> np.ndarray:
    """Edges theta_lo + i delta_theta of a grid's cells ``i0`` to ``i1``
    (exclusive), for oracles that integrate between edges."""
    if i1 is None:
        i1 = grid.n_cells
    return grid.theta_lo + np.arange(i0, i1 + 1, dtype=float) * grid.delta_theta


def grid_cells(grid, i0: int = 0, i1: int | None = None):
    """(centres, half-width) of a grid's cells ``i0`` to ``i1`` (exclusive),
    the arguments of the ``escatter.geometry`` cell integrals."""
    if i1 is None:
        i1 = grid.n_cells
    return grid.centres(range(i0, i1)), 0.5 * grid.delta_theta


#: cells per chunk of the streamed exact sum
CHUNK_CELLS = 1 << 20


def iter_cell_chunks(grid, chunk_cells: int = CHUNK_CELLS):
    """Index arrays of consecutive runs of cells tiling the grid in order,
    so a sum over tens of millions of cells stays O(chunk) in memory."""
    for i0 in range(0, grid.n_cells, chunk_cells):
        yield np.arange(i0, min(i0 + chunk_cells, grid.n_cells), dtype=float)


def streamed_weight_entropy(grid, K: float, channel,
                            chunk_cells: int = CHUNK_CELLS) -> tuple[float, float]:
    """(H_bits, Z) of a grid's detection distribution from every cell's
    weight, chunk by chunk: Z = sum w, T = sum w ln w (w ln(w / m) on a
    SPHERE_PIXELS grid, m the pixels of the ring) and H = (ln Z - T / Z) /
    ln 2.  Two outcomes per cell (direct, exchange) for ANTIPARALLEL."""
    hw = 0.5 * grid.delta_theta
    z = 0.0
    t = 0.0
    for x in iter_cell_chunks(grid, chunk_cells):
        mid = grid.theta_lo + (x + 0.5) * grid.delta_theta
        if channel is SpinChannel.ANTIPARALLEL:
            branches = direct_exchange_cell_integrals_np(mid, hw, K)
        else:
            branches = (channel_cell_integrals_np(mid, hw, K, channel),)
        m = (2.0 * math.pi * np.sin(mid) / grid.delta_theta
             if grid.kind is GridKind.SPHERE_PIXELS else np.ones_like(mid))
        for w in branches:
            keep = w > 0.0
            z += float(w[keep].sum())
            t += float((w[keep] * np.log(w[keep] / m[keep])).sum())
    return (math.log(z) - t / z) / math.log(2.0), z


def _mp_cell(mid: float, hw: float, K: float):
    """Exact bounds a, b of the cell [mid - hw, mid + hw] and the prefactor
    pi / (4 K^4), at the working precision."""
    a = mpmath.mpf(mid) - mpmath.mpf(hw)
    b = mpmath.mpf(mid) + mpmath.mpf(hw)
    return a, b, mpmath.pi / (4 * mpmath.mpf(K) ** 4)


def _antiderivatives_mp(a, b, K):
    """pi / (4 K^4) times the differences over [a, b] of -1/s, 1/(1-s) and
    A(u) = 4 (atanh u - u / (1 - u^2)), s = sin^2(theta/2), u = cos theta:
    the direct, exchange and parallel weights of that span."""
    c = mpmath.pi / (4 * mpmath.mpf(K) ** 4)
    s_a, s_b = mpmath.sin(a / 2) ** 2, mpmath.sin(b / 2) ** 2

    def A(u):
        return 4 * (mpmath.atanh(u) - u / (1 - u * u))

    return (c * (1 / s_a - 1 / s_b), c * (1 / (1 - s_b) - 1 / (1 - s_a)),
            c * (A(mpmath.cos(b)) - A(mpmath.cos(a))))


def parallel_cell_integral_mp(mid: float, hw: float, K: float) -> float:
    """2 pi int (f-g)^2 sin dtheta over [mid - hw, mid + hw], at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(mid) - mpmath.mpf(hw)
        b = mpmath.mpf(mid) + mpmath.mpf(hw)
        return float(_antiderivatives_mp(a, b, K)[2])


def direct_exchange_cell_integrals_mp(mid: float, hw: float,
                                      K: float) -> tuple[float, float]:
    """2 pi int f^2 sin and 2 pi int g^2 sin over [mid - hw, mid + hw], at
    50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(mid) - mpmath.mpf(hw)
        b = mpmath.mpf(mid) + mpmath.mpf(hw)
        direct, exchange, _ = _antiderivatives_mp(a, b, K)
        return float(direct), float(exchange)


def telescoped_weight_mp(grid, K: float, channel) -> float:
    """Total weight of a grid's cells, theta_lo to theta_lo + n delta_theta,
    at 50 digits (both branches for ANTIPARALLEL)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(grid.theta_lo)
        b = a + grid.n_cells * mpmath.mpf(grid.delta_theta)
        direct, exchange, parallel = _antiderivatives_mp(a, b, K)
        return float({SpinChannel.SPINLESS: direct,
                      SpinChannel.PARALLEL: parallel,
                      SpinChannel.ANTIPARALLEL: direct + exchange}[channel])


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


def gauss_legendre_mp(n: int) -> tuple[list[float], list[float]]:
    """Nodes and weights 2 / ((1 - x^2) P_n'(x)^2) of the n-point
    Gauss-Legendre rule, each rounded once from 50 digits."""
    nodes, weights = [], []
    with mpmath.workdps(50):
        for guess in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                mpmath.mpf(float(guess)))
            dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) \
                / (1 - x * x)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return nodes, weights


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


def _gl_doubling(rule, what: str) -> float:
    """Gauss-Legendre doubling: ``rule(x, w)`` is the integral's estimate
    from the n-point nodes x and weights w on [-1, 1].  n starts at 64 and
    doubles until two successive estimates agree to 1e-9 relative; a
    non-finite estimate, or no agreement by 4096 nodes, raises
    :class:`NumericalError` naming ``what``."""
    prev = None
    n = 64
    while n <= 4096:
        est = rule(*_gl(n))
        if not math.isfinite(est):
            raise NumericalError(f"{what} is {est!r} with {n} GL nodes")
        if prev is not None and abs(est - prev) <= 1e-9 * max(abs(est), 1e-300):
            return est
        prev = est
        n *= 2
    raise NumericalError(f"{what} did not converge with 4096 GL nodes")


def kernel_j_oracle(mu: float, ctx, window_sigmas: float = 40.0) -> float:
    """J(mu), the q'' integral of the meridian kernel for one mu,
    restricted to the window [max(K eps, mu - W sigma_k),
    min(2K, mu + W sigma_k)] with W = ``window_sigmas`` and
    Gauss-Legendre-refined.  At the default W = 40 the Gaussian factor at
    the window edge, exp(-800), underflows: the window drops nothing."""
    sig2 = ctx.sigma_k ** 2
    lo = max(ctx.K * ctx.epsilon, mu - window_sigmas * ctx.sigma_k)
    hi = min(2.0 * ctx.K, mu + window_sigmas * ctx.sigma_k)
    if hi <= lo:
        return 0.0
    half = 0.5 * (hi - lo)
    shift = 0.5 * (hi + lo) - mu  # window centre relative to mu
    bessel_scale = mu / sig2

    def rule(x, w):
        t = shift + half * x
        qq = mu + t
        vals = qq ** (-3.0) * i0e(bessel_scale * qq) * np.exp(-(t * t) / (2.0 * sig2))
        return half * float(np.dot(w, vals))

    return _gl_doubling(rule, f"kernel integral J(mu={mu!r})")


def kernel_j_mp(mu: float, ctx) -> mpmath.mpf:
    """J(mu) to 30 digits by mpmath quadrature in t = q'' - mu, so the
    Gaussian's exponent is formed from the offset itself, not as a
    difference of nearby q''.  The window is 40 sigma_k, whose edge
    factor exp(-800) is invisible at 30 digits; the quadrature's own
    error estimate must be below 1e-15 of J."""
    with mpmath.workdps(30):
        m, s = mpmath.mpf(mu), mpmath.mpf(ctx.sigma_k)
        s2 = s * s
        a = max(mpmath.mpf(ctx.K * ctx.epsilon) - m, -40 * s)
        b = min(mpmath.mpf(2.0 * ctx.K) - m, 40 * s)

        def integrand(t):
            qq = m + t
            x = m * qq / s2
            return qq ** -3 * mpmath.besseli(0, x) * mpmath.exp(-x - t * t / (2 * s2))

        cuts = [c * s for c in (-12, -4, -1, 0, 1, 4, 12)]
        val, err = mpmath.quad(integrand, [a, *(c for c in cuts if a < c < b), b],
                               error=True)
        if not err <= 1e-15 * val:
            raise NumericalError(f"J(mu={mu!r}) to 30 digits: error estimate {err}")
        return +val


def _kernel_element(q: float, q_prime: float, ctx) -> float:
    band_expo = -((q - q_prime) ** 2) / (8.0 * ctx.sigma_k ** 2)
    return 2.0 * math.pi * math.exp(band_expo) * kernel_j_oracle(0.5 * (q + q_prime), ctx)


def meridian_matrix_oracle(ctx, n_grid: int) -> np.ndarray:
    """Trace-normalized meridian density matrix, element by element.

    Same theta grid, measure and 45 sigma_k band as
    ``escatter.density_matrix.build_meridian_matrix``, but every band
    element is its own ``kernel_j_oracle`` call in a per-pair scan that
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
        rho[i, i] = measure[i] * _kernel_element(float(q[i]), float(q[i]), ctx)
        for j in range(i + 1, n_grid):
            if q[j] - q[i] > band:
                break  # q is increasing in j; everything further is zero
            val = sqrt_mu[i] * sqrt_mu[j] * _kernel_element(
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


def continuous_limit_oracle(ctx, channel: str, form: str,
                            n_cells: int | None = None) -> float:
    """Continuous-limit entropy (bits) of one channel's detection density.

    ``channel`` is "spinless", "parallel" or "antiparallel"; ``form`` is
    "ring" (S = -int P log2(Lambda P) dtheta + log2 n_cells, Lambda the
    domain length) or "sphere" (S = -int P log2(Omega_0 P / (2 pi sin
    theta)) dtheta + log2 M, Omega_0 the domain's solid angle and
    M = floor(Omega_0 / dtheta^2) its pixel count).  P is the normalized
    1-D density: f^2 sin(theta) for spinless, 16 cos^2(theta) / sin^3(theta)
    for parallel, and the two branches f^2 sin(theta), g^2 sin(theta)
    normalized jointly for antiparallel, with f = 1/sin^2(theta/2) and
    g = 1/cos^2(theta/2) (common factors cancel on normalization).
    Each integral is taken in u = ln(theta), theta = e^u, one adaptive
    quad per octave [lo 2^k, lo 2^(k+1)] of the domain [lo, hi].
    """
    lo = ctx.epsilon
    hi = math.pi - lo if channel == "spinless" else 0.5 * math.pi

    def direct(theta: float) -> float:
        return math.sin(theta) / math.sin(0.5 * theta) ** 4

    def exchange(theta: float) -> float:
        return math.sin(theta) / math.cos(0.5 * theta) ** 4

    def parallel(theta: float) -> float:
        return 16.0 * math.cos(theta) ** 2 / math.sin(theta) ** 3

    densities = {"spinless": (direct,), "parallel": (parallel,),
                 "antiparallel": (direct, exchange)}[channel]
    if form == "ring":
        def scale(theta: float) -> float:
            return hi - lo
        log2_count = math.log2(n_cells)
    else:
        omega0 = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))

        def scale(theta: float) -> float:
            return omega0 / (2.0 * math.pi * math.sin(theta))
        log2_count = math.log2(math.floor(omega0 / ctx.delta_theta ** 2))

    octaves = [math.log(lo) + k * math.log(2.0)
               for k in range(int(math.log2(hi / lo)) + 1)]
    octaves = [u for u in octaves if u < math.log(hi)] + [math.log(hi)]

    def integral(fn) -> float:
        # int fn(theta) dtheta = int fn(e^u) e^u du, octave by octave
        return math.fsum(
            quad(lambda u: fn(math.exp(u)) * math.exp(u), a, b,
                 epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in zip(octaves[:-1], octaves[1:]))

    z = integral(lambda theta: sum(d(theta) for d in densities))

    def p_log2_scaled_p(theta: float) -> float:
        total = 0.0
        for d in densities:
            p = d(theta) / z
            if p > 0.0:
                total += p * math.log2(scale(theta) * p)
        return total

    return -integral(p_log2_scaled_p) + log2_count
