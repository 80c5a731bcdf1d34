"""Discrete Shannon entropies of detector distributions, and their
continuous limit for astronomically many pixels, on the ``math`` module
alone.

Every entropy here is a discrete sum over a detector layout.  A grid of
at most 8192 cells is summed cell by cell.  A larger one is summed
exactly over the 64 cells at an edge within 64 cells of an angle where
the summand is singular, and elsewhere by the midpoint Euler-Maclaurin
formula to its f^(5) term, which agrees with the sum over every cell
to 1e-13 bits; the cost is 280-750 cell evaluations for a native ring
grid of 10^5-10^8 cells, about 70 for a post-selection band below pi/2.

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
from functools import lru_cache, partial

from .amplitudes import SpinChannel
from .errors import NumericalError
from .geometry import (
    AngularGrid,
    GridKind,
    channel_cell_integrals,
    channel_domain,
    direct_exchange_cell_integrals,
    panel_edges,
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
    p = [float(x) for x in p]
    # NaN passes both comparisons below, so it is rejected here
    if not all(map(math.isfinite, p)):
        raise ValueError("probabilities must be finite")
    if any(x < 0.0 for x in p):
        raise ValueError("probabilities must be nonnegative")
    total = math.fsum(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability vector not normalized: sum = {total!r}")
    return -math.fsum(x * math.log2(x) for x in p if x > 0.0)


# ---------------------------------------------------------------------------
# discrete sums in O(1): exact ends, Euler-Maclaurin middle
# ---------------------------------------------------------------------------

#: a grid of at most this many cells is summed exactly throughout
_EXACT_MAX_CELLS = 8192
#: cells summed exactly at an edge of a larger grid within this many
#: cells of a singular angle, and the narrowest Euler-Maclaurin panel:
#: with the f^(5) term the middle is within rounding from 64 cells off a
#: singular angle on, without it from about 128
_EXACT_END_CELLS = 64
#: where a channel's w ln w (w ln(w / m) on a sphere) is not analytic in
#: the cell index: 0, the pole of f; pi, the pole of g and the zero of
#: sin(theta); pi/2 for PARALLEL, the double zero of (f - g)^2
_SINGULAR_ANGLES = {SpinChannel.SPINLESS: (0.0, math.pi),
                    SpinChannel.PARALLEL: (0.0, 0.5 * math.pi, math.pi),
                    SpinChannel.ANTIPARALLEL: (0.0, math.pi)}
#: Gauss-Legendre nodes per panel
_PANEL_NODES = 16
#: offsets from a half-integer end of the middle of the six cells around
#: it, from which its odd derivatives are taken
_STENCIL = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on
    [-1, 1], by Newton's iteration on the Legendre three-term recurrence
    from the guesses cos(pi (i + 3/4) / (n + 1/2)).

    The weights are 2 / ((1 - x^2) P_n'(x)^2), with 1 - x^2 formed as
    (1 - x)(1 + x).  Of the textbook forms this one varies least with the
    rounding of x, which puts it within 1e-14 of the exact weights up to
    40 nodes; the form 2 (1 - x^2) / (n P_{n-1}(x))^2 varies n + 1 times
    as fast and is 7e-14 off at 20 nodes next to +-1."""
    def legendre(x: float) -> tuple[float, float]:
        # (P_{n-1}(x), P_n(x))
        p_prev, p = 1.0, x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p_prev, p

    upper = []  # (node, weight) for the nodes in [0, 1), largest first
    for i in range((n + 1) // 2):
        x = 0.0 if 2 * i + 1 == n else math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p_prev, p = legendre(x)
            dx = p * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p))  # P_n / P_n'
            x -= dx
            if abs(dx) < 1e-16:
                break
        p_prev, p = legendre(x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        upper.append((x, 2.0 / (one_minus_x2 * dp * dp)))
    rule = [(-x, w) for x, w in upper if x != 0.0] + upper[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def _cell_terms(grid: AngularGrid, K: float, channel: SpinChannel,
                xs) -> tuple[list[float], list[float]]:
    """(w, w ln w) for the cells at (possibly fractional) indices ``xs``,
    each summed over the channel's branches.  On a SPHERE_PIXELS grid the
    second term is w ln(w / m), m = ring_weight(centre).  Both are smooth
    in x, which is what lets the middle of a grid be summed by
    Euler-Maclaurin."""
    mids = grid.centres(xs)
    hw = 0.5 * grid.delta_theta
    if channel is SpinChannel.ANTIPARALLEL:
        branches = direct_exchange_cell_integrals(mids, hw, K)
    else:
        branches = (channel_cell_integrals(mids, hw, K, channel),)
    m = ([ring_weight(mid, grid.delta_theta) for mid in mids]
         if grid.kind is GridKind.SPHERE_PIXELS else [1.0] * len(mids))
    log = math.log
    z = [0.0] * len(mids)
    t = [0.0] * len(mids)
    for branch in branches:
        for i, w in enumerate(branch):
            if w > 0.0:
                z[i] += w
                t[i] += w * log(w / m[i])
            # w > 0 also drops NaN and -inf: look at what it dropped (an inf
            # weight is kept and makes the entropy below non-finite)
            elif not math.isfinite(w):
                raise NumericalError(
                    f"non-finite cell weight in the {channel.value} channel "
                    f"at theta = {mids[i]!r}")
    return z, t


def _end_correction(v) -> float:
    """-f'/24 + 7 f'''/5760 - 31 f^(5)/967680 at a half-integer point,
    from f at the six points _STENCIL around it (each derivative exact
    for polynomials of degree five)."""
    d1, d3, d5 = v[3] - v[2], v[4] - v[1], v[5] - v[0]
    f1 = 75.0 / 64.0 * d1 - 25.0 / 384.0 * d3 + 3.0 / 640.0 * d5
    f3 = -17.0 / 4.0 * d1 + 13.0 / 8.0 * d3 - 1.0 / 8.0 * d5
    f5 = 10.0 * d1 - 5.0 * d3 + d5
    return -f1 / 24.0 + 7.0 * f3 / 5760.0 - 31.0 * f5 / 967680.0


def _euler_maclaurin_sum(f, a: float, b: float,
                         d_a: float, d_b: float) -> tuple[float, ...]:
    """Sum of f over the integers in (a, b), for half-integers a < b and
    an f whose nearest singularities lie d_a >= _EXACT_END_CELLS from a
    and d_b >= _EXACT_END_CELLS from b:

        int_a^b f dx - [f']_a^b / 24 + 7 [f''']_a^b / 5760
                     - 31 [f^(5)]_a^b / 967680

    (midpoint Euler-Maclaurin, Abramowitz & Stegun 23.1.30; the first
    term left out, 127 [f^(7)] / 154828800, is below rounding).  The
    integral runs on Gauss-Legendre panels :func:`panel_edges` lays out,
    max(_EXACT_END_CELLS, d/4) wide at an end d from its nearest
    singularity (which keeps it out of every panel's Bernstein ellipse)
    and doubling towards the middle; the endpoint derivatives come from
    the six cells around each end.  ``f`` maps a list of points to rows
    of values, and is called once."""
    edges = panel_edges(a, b, max(_EXACT_END_CELLS, 0.25 * d_a),
                        max(_EXACT_END_CELLS, 0.25 * d_b))
    nodes, weights = _gauss_legendre(_PANEL_NODES)
    points, gl_weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        centre, width = 0.5 * (lo + hi), 0.5 * (hi - lo)
        points += [centre + width * x for x in nodes]
        gl_weights += [width * w for w in weights]
    n_gl = len(points)
    points += [a + s for s in _STENCIL] + [b + s for s in _STENCIL]
    sums = []
    for v in f(points):
        integral = math.fsum(w * fx for w, fx in zip(gl_weights, v))
        sums.append(integral + _end_correction(v[n_gl + 6:])
                    - _end_correction(v[n_gl:n_gl + 6]))
    return tuple(sums)


def _stream_weight_entropy(grid: AngularGrid, K: float,
                           channel: SpinChannel) -> tuple[float, float]:
    """(H_bits, Z) of the normalized detection distribution on a grid.

    For ANTIPARALLEL the detection outcomes split per cell into a direct
    and an exchange branch (the two distinguishable spin patterns), so the
    distribution has two entries per cell.  On a SPHERE_PIXELS grid each
    ring cell splits into m = ring_weight(center) equally probable pixels,
    so a ring of weight w contributes w ln(w / m) instead of w ln w.

    Uses H(w/Z) = ln(Z)/ln2 - T / (Z ln2), Z = sum w and T = sum w ln w.
    A grid of up to _EXACT_MAX_CELLS cells is summed cell by cell.  On a
    larger one the _EXACT_END_CELLS cells at an edge within as many
    cells of one of the channel's _SINGULAR_ANGLES are, and the cells
    between go to :func:`_euler_maclaurin_sum`, so the cost does not
    grow with the number of cells.
    """
    terms = partial(_cell_terms, grid, K, channel)
    n = grid.n_cells
    if n <= _EXACT_MAX_CELLS:
        w, wlnw = terms(range(n))
        z, t = math.fsum(w), math.fsum(wlnw)
    else:
        # cells from each grid edge to the channel's nearest singular angle
        d_lo, d_hi = (min(abs(edge - s) for s in _SINGULAR_ANGLES[channel])
                      / grid.delta_theta
                      for edge in grid.centres((-0.5, n - 0.5)))
        lo, hi = (_EXACT_END_CELLS if d < _EXACT_END_CELLS else 0
                  for d in (d_lo, d_hi))
        w, wlnw = terms([*range(lo), *range(n - hi, n)])
        z_mid, t_mid = _euler_maclaurin_sum(
            terms, lo - 0.5, n - hi - 0.5, d_lo + lo, d_hi + hi)
        z, t = math.fsum([*w, z_mid]), math.fsum([*wlnw, t_mid])
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
