"""Discrete Shannon entropies of detector distributions, and their
continuous limit for astronomically many pixels.

Every entropy here is a discrete sum over a detector layout.  The sums
take the first and last 4096 cells exactly and the cells between them by
the midpoint Euler-Maclaurin formula, which agrees with the sum over
every cell to 1e-13 bits; the cost is the same few thousand cell
evaluations for 10^4 cells or 10^15.

The *continuous-limit* forms split the entropy into an integral plus
``log2(n_detectors)``: the n -> infinity limit of the sums (Jaynes'
limiting density of discrete points), accurate once the cell width is
small compared to the cutoff angle epsilon.  Their integral is the same
discrete sum on 2^50 equal cells, less the log of its cell count, which
is off by about 0.3-0.5 (delta / epsilon)^2 bits for a fine cell of
width delta; they refuse an epsilon below 10^5 fine cells, where only
the detector's own grid gives the entropy.

All discrete sums go through one reducer.  For the per-pixel sphere
entropy it never enumerates pixels: a ring at polar angle theta holds
m = 2 pi sin(theta)/dtheta equally probable pixels, so the sum runs over
rings with a multiplicity factor, and w ln(w / m) is as smooth in the
ring index as w ln w.
"""

from __future__ import annotations

import math

import numpy as np

from .amplitudes import SpinChannel
from .errors import NumericalError
from .geometry import (
    AngularGrid,
    GridKind,
    _gl_nodes,
    channel_cell_integrals,
    channel_domain,
    direct_exchange_cell_integrals,
    ring_grid,
    ring_weight,
    sphere_pixel_count,
    uniform_grid,
)
from .kinematics import ScatterContext

_LN2 = math.log(2.0)


def shannon_discrete(p) -> float:
    """Shannon entropy -sum p log2 p in bits (0 log 0 := 0) of a detection
    distribution, or of a density matrix's spectrum: its von Neumann entropy.
    Raises ValueError unless p is finite, nonnegative and sums to 1 +- 1e-9."""
    p = np.asarray(p, dtype=float)
    # NaN passes both comparisons below, so it is rejected here
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(
            f"probability vector not normalized: sum = {float(p.sum())!r}")
    pos = p[p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


# ---------------------------------------------------------------------------
# discrete sums in O(1): exact ends, Euler-Maclaurin middle
# ---------------------------------------------------------------------------

#: cells summed exactly at each end of a grid; a grid of at most twice as
#: many cells is summed exactly throughout
_EXACT_END_CELLS = 4096
#: width ratio of neighbouring Gauss-Legendre panels, which grow
#: geometrically from both ends of the Euler-Maclaurin middle
_PANEL_RATIO = 1.25
#: Gauss-Legendre nodes per panel
_PANEL_NODES = 32


def _cell_terms(grid: AngularGrid, K: float, channel: SpinChannel,
                x: np.ndarray) -> np.ndarray:
    """Rows (w, w ln w) for the cells at (possibly fractional) indices x,
    each summed over the channel's branches.  On a SPHERE_PIXELS grid the
    second row is w ln(w / m), m = ring_weight(centre).  Both rows are
    smooth in x, which is what lets the middle of a grid be summed by
    Euler-Maclaurin."""
    mid = grid.centres(x)
    hw = 0.5 * grid.delta_theta
    if channel is SpinChannel.ANTIPARALLEL:
        branches = direct_exchange_cell_integrals(mid, hw, K)
    else:
        branches = (channel_cell_integrals(mid, hw, K, channel),)
    m = (ring_weight(mid, grid.delta_theta)
         if grid.kind is GridKind.SPHERE_PIXELS else 1.0)
    terms = np.zeros((2, len(mid)))
    for w in branches:
        keep = w > 0.0
        # w > 0 also drops NaN and -inf: look at what it dropped (an inf
        # weight is kept and makes the entropy below non-finite)
        bad = ~keep & ~np.isfinite(w)
        if bad.any():
            raise NumericalError(
                f"non-finite cell weight in the {channel.value} channel "
                f"at theta = {float(mid[bad][0])!r}")
        wk = np.where(keep, w, 1.0)
        terms[0] += np.where(keep, w, 0.0)
        terms[1] += np.where(keep, wk * np.log(wk / m), 0.0)
    return terms


def _euler_maclaurin_sum(f, a: float, b: float) -> np.ndarray:
    """Sum of f over the integers in (a, b), for half-integers a < b and
    an f whose singularities lie at least _EXACT_END_CELLS from [a, b]:

        int_a^b f dx - [f']_a^b / 24 + 7 [f''']_a^b / 5760

    (midpoint Euler-Maclaurin, Abramowitz & Stegun 23.1.30; the first
    term left out, 31 [f^(5)] / 967680, is of relative order
    _EXACT_END_CELLS^-6).  The integral runs on Gauss-Legendre panels
    that grow from both ends by _PANEL_RATIO, the first one a quarter of
    _EXACT_END_CELLS wide; the endpoint derivatives are five-point
    central differences one cell apart.  ``f`` maps an array of points to
    rows of values, and is called once."""
    half = 0.5 * (b - a)
    steps = math.ceil(math.log1p(half / _EXACT_END_CELLS)
                      / math.log(_PANEL_RATIO))
    offsets = _EXACT_END_CELLS * (_PANEL_RATIO ** np.arange(steps + 1) - 1.0)
    offsets = np.append(offsets[offsets < half], half)
    edges = np.concatenate([a + offsets, (b - offsets)[-2::-1]])
    centre = 0.5 * (edges[:-1] + edges[1:])[:, None]
    width = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes, weights = _gl_nodes(_PANEL_NODES)
    stencil = np.array([-2.0, -1.0, 1.0, 2.0])
    values = f(np.concatenate([(centre + width * nodes).ravel(),
                               a + stencil, b + stencil]))
    n_gl = centre.size * _PANEL_NODES
    integral = values[:, :n_gl] @ (width * weights).ravel()

    def d1_d3(v):
        # f' and f''' from f at x - 2, x - 1, x + 1, x + 2
        m2, m1, p1, p2 = v.T
        return ((m2 - 8.0 * m1 + 8.0 * p1 - p2) / 12.0,
                (-m2 + 2.0 * m1 - 2.0 * p1 + p2) / 2.0)

    d1a, d3a = d1_d3(values[:, n_gl:n_gl + 4])
    d1b, d3b = d1_d3(values[:, n_gl + 4:])
    return integral - (d1b - d1a) / 24.0 + 7.0 * (d3b - d3a) / 5760.0


def _stream_weight_entropy(grid: AngularGrid, K: float,
                           channel: SpinChannel) -> tuple[float, float]:
    """(H_bits, Z) of the normalized detection distribution on a grid.

    For ANTIPARALLEL the detection outcomes split per cell into a direct
    and an exchange branch (the two distinguishable spin patterns), so the
    distribution has two entries per cell.  On a SPHERE_PIXELS grid each
    ring cell splits into m = ring_weight(center) equally probable pixels,
    so a ring of weight w contributes w ln(w / m) instead of w ln w.

    Uses H(w/Z) = ln(Z)/ln2 - T / (Z ln2), Z = sum w and T = sum w ln w.
    The first and last _EXACT_END_CELLS cells are summed exactly, the
    cells between them by :func:`_euler_maclaurin_sum`, so the cost does
    not grow with the number of cells.
    """
    def terms(x):
        return _cell_terms(grid, K, channel, x)

    n = grid.n_cells
    if n <= 2 * _EXACT_END_CELLS:
        z, t = terms(np.arange(n)).sum(axis=1)
    else:
        ends = np.concatenate([np.arange(_EXACT_END_CELLS),
                               np.arange(n - _EXACT_END_CELLS, n)])
        z, t = terms(ends).sum(axis=1) + _euler_maclaurin_sum(
            terms, _EXACT_END_CELLS - 0.5, n - _EXACT_END_CELLS - 0.5)
    z, t = float(z), float(t)
    if z <= 0.0:
        return 0.0, 0.0
    h = (math.log(z) - t / z) / _LN2
    if not math.isfinite(h):
        raise NumericalError(f"detection entropy is {h!r} (Z = {z!r})")
    # the sum is >= 0 mathematically; rounding can leave -1e-16
    return max(0.0, h), z


def _resolve_grid(ctx: ScatterContext, channel: SpinChannel,
                  n_cells: int | None,
                  kind: GridKind = GridKind.RINGS) -> AngularGrid:
    if n_cells is None:
        return ring_grid(ctx, channel, kind=kind)
    lo, hi = channel_domain(ctx, channel)
    return uniform_grid(lo, hi, n_cells, kind=kind)


def shannon_ring_discrete(ctx: ScatterContext, channel: SpinChannel,
                          n_cells: int | None = None) -> float:
    """Discrete detection entropy (bits) over ring cells.

    This is the entropy of *which detector fires* (and, for ANTIPARALLEL,
    which spin pattern it sees); the extra exchange bit of the
    indistinguishable spin channels is added by the spin module where the
    full spin-state entropy is wanted.
    """
    grid = _resolve_grid(ctx, channel, n_cells)
    return _stream_weight_entropy(grid, ctx.K, channel)[0]


def shannon_sphere_discrete(ctx: ScatterContext,
                            channel: SpinChannel = SpinChannel.SPINLESS,
                            n_cells: int | None = None) -> float:
    """Per-pixel entropy on the accessible sphere via ring multiplicities.

    A polar ring of width dtheta at angle theta splits into
    m(theta) = 2 pi sin(theta)/dtheta equal pixels, so
    S = -sum_rings P_ring log2(P_ring / m) without ever enumerating
    pixels.  The entropy of the discretized sphere at any energy.
    """
    grid = _resolve_grid(ctx, channel, n_cells, kind=GridKind.SPHERE_PIXELS)
    return _stream_weight_entropy(grid, ctx.K, channel)[0]


# ---------------------------------------------------------------------------
# continuous-limit forms: the discrete sum on 2^50 cells plus a log term
# ---------------------------------------------------------------------------

#: cells of the fine grid whose entropy, shifted by a log term, is the
#: continuous limit; a fine cell of width delta moves it by about
#: 0.3-0.5 (delta / epsilon)^2 bits
_LIMIT_CELLS = 2 ** 50
#: largest delta / epsilon accepted, which keeps that error below 1e-10 bits
_LIMIT_MAX_CELL_RATIO = 1e-5


def _limit_entropy(ctx: ScatterContext, channel: SpinChannel,
                   kind: GridKind) -> tuple[float, float]:
    """(H, delta): the discrete entropy of _LIMIT_CELLS equal cells of
    width delta over the channel domain.  Raises NumericalError when
    delta is not small against the cutoff angle epsilon, where only the
    detector's own grid gives the entropy."""
    lo, hi = channel_domain(ctx, channel)
    grid = uniform_grid(lo, hi, _LIMIT_CELLS, kind=kind)
    if grid.delta_theta > _LIMIT_MAX_CELL_RATIO * ctx.epsilon:
        raise NumericalError(
            f"cutoff angle epsilon = {ctx.epsilon:.3g} rad is less than "
            f"{1.0 / _LIMIT_MAX_CELL_RATIO:g} continuous-limit cells of "
            f"{grid.delta_theta:.3g} rad, so the limit would be off by more "
            "than 1e-10 bits; the discrete sums "
            "shannon_ring_discrete(n_cells=...) and "
            "shannon_sphere_discrete(n_cells=...) are exact there")
    return _stream_weight_entropy(grid, ctx.K, channel)[0], grid.delta_theta


def shannon_ring_jaynes(ctx: ScatterContext, channel: SpinChannel,
                        n_cells: int | None = None) -> float:
    """Continuous-limit ring entropy: S = -int P log2(Lambda P) + log2 N.

    P(theta) is the normalized 1-D detection density over the channel
    domain and Lambda the domain length; N defaults to the native ring
    count.  Valid when the cell width is well below the cutoff angle.
    The integral is the discrete entropy of 2^50 equal cells minus 50.
    """
    n = _resolve_grid(ctx, channel, n_cells).n_cells
    h, _ = _limit_entropy(ctx, channel, GridKind.RINGS)
    return h - math.log2(_LIMIT_CELLS) + math.log2(n)


def shannon_sphere_jaynes(ctx: ScatterContext,
                          channel: SpinChannel = SpinChannel.SPINLESS) -> float:
    """Continuous-limit sphere entropy:
    S = -2 pi * int pbar(theta) log2(Omega_0 p(theta)) dtheta + log2 M,

    with p the solid-angle detection density normalized over the
    accessible domain, pbar = p sin(theta), Omega_0 the accessible solid
    angle and M the channel's pixel count.  Valid when the pixel side is
    well below the cutoff angle.  The integral is the per-pixel entropy
    of 2^50 rings of width delta minus log2(Omega_0 / delta^2).
    """
    lo, hi = channel_domain(ctx, channel)
    omega0 = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
    h, delta = _limit_entropy(ctx, channel, GridKind.SPHERE_PIXELS)
    return h - math.log2(omega0 / delta ** 2) \
        + math.log2(sphere_pixel_count(ctx, channel))
