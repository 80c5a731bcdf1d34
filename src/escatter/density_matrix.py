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
table over the band's range of mu: panels start at both ends and double
in width towards the middle, each interpolating J at 16 Chebyshev nodes.
Every build checks every panel against direct J at the 17 Chebyshev
extrema interleaving its nodes, to 1e-10 relative, and bisects the
panels that miss; past a fixed number of panel fits it raises
:class:`NumericalError`, so a build takes bounded time.  The panels are
fitted in rounds (at most two at the benchmark's points), each one
batched direct-J call on every pending panel's 33 points.  Its nodes
mid + half x round to ulp(mu), which near mu = 2K moves x by up to
1e-6, so a fit at the ideal Chebyshev x would miss the check there.  A
round fits every panel at x = (node - mid) / half, where its nodes
really sit, by one batched solve of their Chebyshev-Vandermonde systems
(well conditioned at points this close to Chebyshev's); check points
and band mu take the same map.  Clenshaw passes, numpy's ``chebval``
step for step, check a round and evaluate every band mu.  The band is
then normalised by its own diagonal's sum and written once, by
broadcasting, into kernel-zeroed pages.  Builds share no state but
``_gl_nodes``' cached arrays, which they only read, so threads may build
at once.  :func:`kernel_element` evaluates one element from direct J.

I0e is Cephes' (Moshier's) Chebyshev expansion evaluated with numpy, in
three preallocated buffers, so the package needs no scipy.

:func:`eigen_spectrum` runs its one ``eigvalsh`` with the calling
thread's SSE flush-to-zero and denormals-are-zero bits set, and restores
the thread's saved floating-point environment after, also on an error.
LAPACK's tridiagonal reduction fills rho in outside its band with
subnormals (below 2.2e-308), each a slow path on x86: a third of the
eigensolve at n = 1024.  The flush moves only values that small, some 295
orders below LAPACK's own error O(n eps ||rho||), ||rho|| <= trace = 1;
the spectra checked were bit-identical.  It applies on Linux x86-64
(fenv_t's layout) with MXCSR at its default 0x1F80, and only in the
calling thread: MXCSR is per thread, so other BLAS threads keep theirs.

Discretization uses midpoint cells in theta with the spherical measure
folded in symmetrically (rho_ij = sqrt(mu_i mu_j) K(q_i, q_j) with
mu_i = K^2 sin(theta_i) h, since q dq = K^2 sin(theta) dtheta), so the
matrix is the measure-weighted sampling of the integral operator: its
diagonal reproduces ring probabilities and its eigenvalues approximate
the operator spectrum.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import sys
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .amplitudes import SpinChannel
from .errors import NumericalError
from .geometry import panel_edges, ring_grid
from .kinematics import ScatterContext

# exp(-(q-q')^2/8 sigma^2) at 45 sigma is ~1e-110: treat as exactly zero.
_BAND_SIGMAS = 45.0
# rows per tile of DensityMatrix's symmetry check
_SYM_TILE = 32
# Gaussian window half-width W for the q'' quadrature: the Gaussian factor
# at the window edge is exp(-12^2/2) ~ 5e-32, 15 orders below double
# rounding; _kernel_j's docstring bounds the dropped tail.
_WINDOW_SIGMAS = 12.0

# J(mu) table: Chebyshev nodes per panel, the relative error every panel
# must meet against direct J, and the most panel fits one build may make.
_TABLE_NODES = 16
_TABLE_RTOL = 1e-10
_TABLE_MAX_PANELS = 256
# a panel's direct-J points in [-1, 1]: the Chebyshev points of the first
# kind, which it interpolates, then the extrema of T_16, where it is checked
_PANEL_X = np.concatenate([chebyshev.chebpts1(_TABLE_NODES),
                           chebyshev.chebpts2(_TABLE_NODES + 1)])

#: Gauss-Legendre nodes and weights on [-1, 1], cached by order: numpy's
#: rule, the one ``kernel_j_oracle`` uses, so that direct J equals it
_gl_nodes = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)

_GL_START = 64
_GL_MAX = 4096
_GL_RTOL = 1e-9
# direct J evaluates its integrand on at most this many (mu, node) pairs
# at a time, which bounds its temporaries to a few MB
_J_BATCH = 1 << 15

# Cephes' i0e tables: Chebyshev coefficients of exp(-x) I0(x) in x/2 - 2
# on [0, 8], and of exp(-x) I0(x) sqrt(x) in 32/x - 2 on (8, inf)
_I0E_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)

# x86-64 fenv_t (glibc, musl) is 32 bytes, MXCSR its last word; the fenv
# calls come from the process's own symbols (find_library imports subprocess)
_FENV = ctypes.c_uint32 * 8
_LIBC = None
if sys.platform == "linux" and os.uname().machine == "x86_64":
    try:
        _LIBC = ctypes.CDLL(None)
        _LIBC.fegetenv.argtypes = _LIBC.fesetenv.argtypes = [ctypes.POINTER(_FENV)]
        _LIBC.fegetenv.restype = _LIBC.fesetenv.restype = ctypes.c_int
    except (OSError, AttributeError):  # no fenv calls to be had
        _LIBC = None


class DensityMatrix:
    """Discretized reduced density matrix on a meridian grid: ``rho`` at
    the momentum transfers ``q_grid``.

    Immutable.  The constructor checks that ``rho`` is square, finite,
    symmetric to 1e-12 of its largest absolute entry and of unit trace."""

    __slots__ = ("q_grid", "rho")

    def __init__(self, q_grid: np.ndarray, rho: np.ndarray) -> None:
        r = np.asarray(rho, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {r.shape}")
        # the largest |entry|: max and min propagate NaN and +-inf, so the
        # scale is finite exactly when every entry is
        scale = max(float(r.max()), -float(r.min())) if r.size else 0.0
        if not math.isfinite(scale):
            raise ValueError("density matrix has non-finite entries")
        if scale > 0.0:
            # rows [s, s+b) from column s on against their mirror image:
            # each pair i <= j once, in tiles that stay in cache
            for s in range(0, r.shape[0], _SYM_TILE):
                asym = r[s:s + _SYM_TILE, s:] - r[s:, s:s + _SYM_TILE].T
                if float(np.abs(asym, out=asym).max()) > 1e-12 * scale:
                    raise ValueError("density matrix is not symmetric")
        if abs(float(np.trace(r)) - 1.0) > 1e-9:
            raise ValueError(
                f"trace = {float(np.trace(r))!r}, expected 1 after normalization")
        object.__setattr__(self, "q_grid", q_grid)
        object.__setattr__(self, "rho", r)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DensityMatrix is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"DensityMatrix is immutable: cannot delete {name!r}")


def _chbevl(y: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes' ``chbevl``: the Chebyshev series ``coef`` (highest order
    first) at y/2, by the Clenshaw recurrence b0 = y b1 - b2 + c, rounded
    in Cephes' order, in three buffers that take turns."""
    b0, b1, b2 = np.full_like(y, coef[0]), np.zeros_like(y), np.empty_like(y)
    for c in coef[1:]:
        b2, b1, b0 = b1, b0, b2
        np.multiply(y, b1, out=b0)
        b0 -= b2
        b0 += c
    b0 -= b2
    b0 *= 0.5
    return b0


def _i0e(x):
    """Exponentially scaled modified Bessel function I0(x) exp(-|x|),
    element-wise, equal to Cephes' ``i0e`` (and so to scipy's)."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= 8.0
    xs, xl = x[small], x[~small]
    out[small] = _chbevl(xs / 2.0 - 2.0, _I0E_A)
    out[~small] = _chbevl(32.0 / xl - 2.0, _I0E_B) / np.sqrt(xl)
    return out[()]


def _j_window(mu: np.ndarray, ctx: ScatterContext) -> tuple:
    """Direct J's window, q'' - mu in [lo, hi]: J = 0 where hi <= lo."""
    return (np.maximum(ctx.K * ctx.epsilon - mu, -_WINDOW_SIGMAS * ctx.sigma_k),
            np.minimum(2.0 * ctx.K - mu, _WINDOW_SIGMAS * ctx.sigma_k))


def _kernel_j(mu: np.ndarray, ctx: ScatterContext) -> np.ndarray:
    """J at every ``mu``: the q'' integral of the kernel, window-restricted
    and refined by Gauss-Legendre doubling, all mu at once.

    Each mu's estimate starts at 64 nodes and doubles until two successive
    estimates agree to 1e-9 relative; that mu then keeps its estimate and
    leaves the batch.  A non-finite estimate, or a mu still open at 4096
    nodes, raises :class:`NumericalError` naming the mu.  The window is
    q'' - mu in [max(K eps - mu, -W sigma_k), min(2K - mu, W sigma_k)],
    W = 12, so mu +- W sigma_k is never rounded; an empty one gives J = 0.

    The window drops the integrand beyond W sigma_k of mu.  Above, the
    dropped piece is about exp(-W^2/2)/W ~ 5e-33 of J.  Below, there is
    one once mu > K eps + W sigma_k: on [K eps, mu - W sigma_k] the
    Gaussian is at most exp(-W^2/2) and I0e <= 1, so the piece is at most
    exp(-W^2/2) / (2 (K eps)^2), against J ~ sigma_k^2 / mu^4 (at mu the
    Bessel argument is mu^2/sigma_k^2 >= W^2, where I0e(x) ~ 1/sqrt(2 pi x)).
    Just past mu = K eps + W sigma_k their ratio is about
    exp(-W^2/2) W^4/2 (sigma_k / K eps)^2 (1 + K eps / (W sigma_k))^4;
    farther up the Gaussian at K eps, exp(-(mu - K eps)^2 / 2 sigma_k^2),
    falls faster than mu^4 grows.  A 40-digit scan over mu from 1 eV to
    1e10 eV put the largest dropped share 0.05-0.35 sigma_k past that mu,
    at 0.0004-0.52 of the estimate.  The estimate is below 1e-17 wherever
    K eps / sigma_k >= 1e-5, which holds up to about E = 1e12 eV
    (K eps / sigma_k ~ 10.4 / sqrt(E / eV), whatever L).  Higher up, every
    mu of a matrix build lies at or above the first grid point, about
    pi K / (2 n_grid) above K eps: at 1e12 eV and n_grid = 4096 that is
    ~2000 sigma_k for L = 1 nm (and grows with E and L), where the
    dropped piece underflows.
    """
    mu = np.asarray(mu, dtype=float)
    sig2 = ctx.sigma_k ** 2
    lo, hi = _j_window(mu, ctx)
    half = 0.5 * (hi - lo)
    shift = 0.5 * (hi + lo)  # window centre relative to mu
    bessel_scale = mu / sig2
    out = np.zeros_like(mu)
    todo = np.flatnonzero(hi > lo)
    prev = None
    n = _GL_START
    while todo.size and n <= _GL_MAX:
        x, w = _gl_nodes(n)
        est = np.empty(todo.size)
        rows = max(1, _J_BATCH // n)
        for r in range(0, todo.size, rows):
            i = todo[r:r + rows]
            k = i[:, None]
            # q'' - mu from the node offsets, not as a difference of
            # nearby floats: with mu >> sigma_k, rounding q'' to ulp(mu)
            # would put noise of ulp(mu)/sigma_k into every exponent
            t = shift[k] + half[k] * x
            qq = mu[k] + t
            vals = (qq ** (-3.0) * _i0e(bessel_scale[k] * qq)
                    * np.exp(-(t * t) / (2.0 * sig2)))
            est[r:r + rows] = half[i] * np.vecdot(vals, w)
        bad = ~np.isfinite(est)
        if bad.any():
            m = float(mu[todo[bad][0]])
            raise NumericalError(
                f"kernel integral J(mu={m!r}) is {float(est[bad][0])!r} "
                f"with {n} GL nodes")
        if prev is not None:
            done = np.abs(est - prev) <= _GL_RTOL * np.maximum(np.abs(est), 1e-300)
            out[todo[done]] = est[done]
            todo, est = todo[~done], est[~done]
        prev = est
        n *= 2
    if todo.size:
        raise NumericalError(
            f"kernel integral J(mu={float(mu[todo[0]])!r}) did not converge "
            f"to {_GL_RTOL:g} relative with {_GL_MAX} GL nodes")
    return out


def kernel_element(q: float, q_prime: float, ctx: ScatterContext) -> float:
    """One matrix element rho(q, q') of the meridian kernel (unnormalized).

    All exponentials are combined before evaluation (scaled Bessel plus
    completed square), so every exponent is <= 0 and the value never
    overflows for physical arguments.
    """
    q_min, q_max = ctx.K * ctx.epsilon, 2.0 * ctx.K  # q = 2K sin(theta/2)
    if not (q_min <= q <= q_max and q_min <= q_prime <= q_max):
        raise ValueError(
            f"momentum transfer outside [forward cutoff {q_min!r}, backward "
            f"limit 2K = {q_max!r}]: q={q!r}, q'={q_prime!r}")
    band_expo = -((q - q_prime) ** 2) / (8.0 * ctx.sigma_k ** 2)
    j = float(_kernel_j(np.array([0.5 * (q + q_prime)]), ctx)[0])
    return 2.0 * math.pi * math.exp(band_expo) * j


def _chebval_rows(x: np.ndarray, coef_of) -> np.ndarray:
    """numpy's ``chebval`` Clenshaw recurrence, operation for operation,
    with the series of degree ``_TABLE_NODES - 1`` taken one coefficient
    at a time: ``coef_of(k)`` is degree k's coefficient, broadcast
    against ``x``."""
    x2 = 2.0 * x
    c0, c1 = coef_of(_TABLE_NODES - 2), coef_of(_TABLE_NODES - 1)
    for k in range(_TABLE_NODES - 3, -1, -1):
        c0, c1 = coef_of(k) - c1, c0 + c1 * x2
    return c0 + c1 * x


def _kernel_j_table(mu: np.ndarray, ctx: ScatterContext) -> np.ndarray:
    """J at every ``mu``, from a piecewise-Chebyshev table over
    [min mu, max mu] that is checked against direct J before use.

    :func:`panel_edges` lays the panels out from both ends, at least
    sigma_k wide, from each end's distance d to the kernel's cutoff
    (min mu - K eps, 2K - max mu): J varies on sigma_k near a cutoff and
    on d away from it.  Panels are fitted in rounds: one direct-J call
    covers every pending panel's nodes and check points, within what is
    left of the ``_TABLE_MAX_PANELS`` budget, and each panel is then kept
    or bisected.
    """
    lo, hi = _j_window(mu, ctx)
    if not (hi > lo).all():  # empty window: J = 0, a jump no panel fits
        out, live = np.zeros_like(mu), hi > lo
        out[live] = _kernel_j_table(mu[live], ctx) if live.any() else 0.0
        return out
    mu_lo, mu_hi = float(mu.min()), float(mu.max())
    edges = panel_edges(mu_lo, mu_hi, ctx.sigma_k, mu_lo - ctx.K * ctx.epsilon,
                        2.0 * ctx.K - mu_hi)
    pending = list(zip(edges[:-1], edges[1:]))
    kept_ab, kept_coef = [], []
    fits = 0
    while pending:
        if fits >= _TABLE_MAX_PANELS:
            a, b = min(pending)
            j = float(_kernel_j(np.array([a]), ctx)[0])
            raise NumericalError(
                f"J(mu) table missed {_TABLE_RTOL:g} relative after "
                f"{_TABLE_MAX_PANELS} panel fits; {len(pending)} panels "
                f"left, the first [{a!r}, {b!r}], where J(a) = {j!r} "
                f"(sigma_k = {ctx.sigma_k!r})")
        batch = pending[:_TABLE_MAX_PANELS - fits]
        pending = pending[len(batch):]
        fits += len(batch)
        ab = np.array(batch)
        mid, half = 0.5 * (ab[:, 0] + ab[:, 1]), 0.5 * (ab[:, 1] - ab[:, 0])
        nodes = mid[:, None] + half[:, None] * _PANEL_X
        x = (nodes - mid[:, None]) / half[:, None]  # where they really sit
        fit_x, check_x = x[:, :_TABLE_NODES], x[:, _TABLE_NODES:]
        if (np.diff(fit_x) <= 0.0).any():  # a jump in J bisects to here
            raise NumericalError(f"J(mu) table missed {_TABLE_RTOL:g} relative "
                                 "down to a panel too narrow for distinct nodes")
        direct = _kernel_j(nodes.ravel(), ctx).reshape(nodes.shape)
        coef = np.linalg.solve(
            chebyshev.chebvander(fit_x, _TABLE_NODES - 1),
            direct[:, :_TABLE_NODES, None])[:, :, 0]
        check = direct[:, _TABLE_NODES:]
        fit = _chebval_rows(check_x, lambda k: coef[:, k, None])
        ok = np.all(np.abs(fit - check) <= _TABLE_RTOL * np.abs(check), axis=1)
        kept_ab.append(ab[ok])
        kept_coef.append(coef[ok])
        for (a, b), m in zip(ab[~ok].tolist(), mid[~ok].tolist()):
            pending += [(a, m), (m, b)]

    ab, coef = np.concatenate(kept_ab), np.concatenate(kept_coef)
    order = np.argsort(ab[:, 0], kind="stable")
    a, b, coef_t = ab[order, 0], ab[order, 1], coef[order].T.copy()
    which = np.searchsorted(a, mu, side="right") - 1
    x = (mu - (0.5 * (a + b))[which]) / (0.5 * (b - a))[which]  # as nodes sit
    return _chebval_rows(x, lambda k: coef_t[k][which])


def _zero_pages(n: int) -> np.ndarray:
    """n x n float64 zeros on pages that stay the kernel's zero page until
    written.  numpy advises huge pages from 4 MB: at n = 1024 the band made
    all 8 MB of an ``np.zeros`` rho resident, but touches ~4.2 MB of 4 kB
    pages.  A shared mapping (mmap's default) makes pages it reads resident."""
    if not hasattr(mmap, "MAP_PRIVATE"):  # Windows
        return np.zeros((n, n))
    pages = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape(n, n)


def build_meridian_matrix(ctx: ScatterContext, n_grid: int) -> DensityMatrix:
    """Assemble and trace-normalize the meridian density matrix.

    The theta grid is the cell centres of vn-compare's ring grid,
    ``ring_grid`` with ``n_grid`` cells over [epsilon, pi - epsilon].
    ``n_grid`` is the caller's choice: rho takes O(n^2) memory and its
    eigensolve O(n^3) time (the CLI caps it).
    Elements farther than 45 sigma_k from the diagonal in q are set to
    exactly zero (they are < 1e-100 of the peak), which keeps assembly
    O(n * bandwidth); the band is divided by the trace, then written once
    into :func:`_zero_pages`.  ``ring_grid`` refuses a context with no
    accessible angle first; then NumericalError refuses a packet so wide
    that sigma_k^2 is not a normal float, or 2K / sigma_k^2 or
    (2K)^2 / sigma_k^2 (the largest Bessel scale and argument) overflows,
    and a grid whose first point q = 2K sin(theta_0/2) lies below the
    kernel's cutoff K epsilon raises ValueError, all before any kernel
    work.
    """
    if n_grid < 2:
        raise ValueError(f"need at least a 2-point grid, got {n_grid}")
    grid = ring_grid(ctx, SpinChannel.SPINLESS, n_cells=n_grid)
    sig2 = ctx.sigma_k ** 2
    if not (sig2 >= sys.float_info.min and math.isfinite(2.0 * ctx.K / sig2)):
        raise NumericalError(
            f"sigma_k = {ctx.sigma_k!r} is too small for the kernel: "
            f"sigma_k^2 = {sig2!r} is below the normal float range or "
            "2K / sigma_k^2 overflows (the packet is too wide)")
    if not math.isfinite(2.0 * ctx.K / sig2 * (2.0 * ctx.K)):  # mu q'' / sigma_k^2
        raise NumericalError(f"sigma_k = {ctx.sigma_k!r} is too small for the kernel: "
                             "the Bessel argument (2K)^2 / sigma_k^2 overflows")

    h = grid.delta_theta
    theta = np.array(grid.centres(range(n_grid)))
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

    j_band = _kernel_j_table(0.5 * (q[i] + q[j]), ctx)
    vals = (sqrt_mu[i] * sqrt_mu[j] * 2.0 * math.pi
            * np.exp(-(dq * dq) / (8.0 * ctx.sigma_k ** 2)) * j_band)
    trace = float(vals[i == j].sum())  # rows start at (i, i): np.trace's sum
    if not (math.isfinite(trace) and trace > 0.0):
        raise NumericalError(
            f"J(mu) on the band is at most {float(j_band.max())!r} (sigma_k = "
            f"{ctx.sigma_k!r}): matrix trace is {trace!r}, cannot normalize")
    vals /= trace
    rho = _zero_pages(n_grid)
    rho[i, j] = vals
    rho[j, i] = vals
    return DensityMatrix(q_grid=q, rho=rho)


@contextlib.contextmanager
def _flush_subnormals():
    """The block runs with MXCSR's FTZ (0x8000) and DAZ (0x0040) bits set in
    the calling thread, whose saved environment it restores after."""
    saved = _FENV()
    if _LIBC is None or _LIBC.fegetenv(saved) or (saved[7] & ~0x3F) != 0x1F80:
        yield  # elsewhere, or MXCSR's controls are not the default
        return
    _LIBC.fesetenv(_FENV(*saved[:7], saved[7] | 0x8040))
    try:
        yield
    finally:
        _LIBC.fesetenv(saved)


def eigen_spectrum(dm: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the density matrix, descending, clamped at zero.

    Values in [-1e-10, 0) are rounded up to 0; anything more negative
    means the matrix is not positive semidefinite and raises.

    On Linux x86-64 ``eigvalsh`` runs with SSE flush-to-zero and
    denormals-are-zero set, for the subnormal fill-in LAPACK makes outside
    rho's band: only values below 2.2e-308 move, against LAPACK's own
    error of O(n eps ||rho||).  With more than one BLAS thread, only the
    calling thread is flushed (see the module docstring).
    """
    with _flush_subnormals():
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
