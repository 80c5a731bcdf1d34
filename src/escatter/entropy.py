"""Discrete Shannon entropies of detector distributions, and their
continuous limit for astronomically many pixels, on the ``math`` module
alone.

Every entropy here is a discrete sum over a detector layout: exact over
its first cell and the 64 cells at an edge within 128 cells of an angle
where the summand is singular, elsewhere the midpoint Euler-Maclaurin
formula to its f^(5) term, within 1e-13 bits of the sum over every cell.
That costs 280-750 cell evaluations for a native ring grid of 10^5-10^8
cells; a post-selection band below pi/2 44-140 in the spinless and
antiparallel channels and 252-428 in the parallel one, whose singular
angle pi/2 is every band's top (1 keV, 50 um, the twelve default bands
of 4e4-6e6 cells).

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
    SINGULAR_ANGLES,
    AngularGrid,
    channel_cell_integrals,
    panel_edges,
    ring_grid,
    ring_weight,
    sphere_pixel_count,
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

#: cells summed exactly at an edge within twice as many of a singular
#: angle, and the narrowest Euler-Maclaurin panel: the middle is within
#: rounding from 64 cells off one on, but not if it starts at the heaviest
#: cell (4e-13 bits on 200 cells at 0.05 eV, with an edge 64-128 off)
_EXACT_END_CELLS = 64
#: how a grid's cell weights leave the float range, and where it shows
_RANGE_ERRORS = {ZeroDivisionError: ("underflow", "division by zero in the cell integrals"),
                 OverflowError: ("overflow", "intermediate overflow in fsum")}
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


def _cell_terms(grid: AngularGrid, c: float, channel: SpinChannel,
                pixels: bool, xs) -> tuple[list[float], list[float]]:
    """(w, w ln w) for the cells at (possibly fractional) indices ``xs``,
    each summed over the branches :func:`channel_cell_integrals` gives
    the channel (two for ANTIPARALLEL, one otherwise) at the scale ``c``.
    With ``pixels`` the second term is w ln(w / m), m = ring_weight(centre).
    Both are smooth in x, which is what lets the middle of a grid be
    summed by Euler-Maclaurin."""
    mids = grid.centres(xs)
    below = grid.below_equator(xs) if channel is SpinChannel.PARALLEL else None
    branches = channel_cell_integrals(mids, below, 0.5 * grid.delta_theta, c, channel)
    log = math.log
    z = [0.0] * len(mids)
    t = [0.0] * len(mids)
    inf = math.inf
    for branch in branches:
        for i, w in enumerate(branch):
            if 0.0 < w < inf:
                z[i] += w
                t[i] += w * log(w)
            # the range test also drops NaN and +-inf, which fail the row; the
            # rest it drops underflowed to 0, under 2.2e-308 of the reducer's
            # first cell (which weighs 1), or is negligible with its centre
            # rounded past pi: as 0 it is exact far below rounding
            elif not math.isfinite(w):
                raise NumericalError(
                    f"non-finite cell weight in the {channel.value} channel "
                    f"at theta = {mids[i]!r}")
    if pixels:
        # w ln w - w ln m, as w / m may underflow; a cell whose weights were
        # all dropped may lie past pi, where m < 0
        t = [ti - zi * log(ring_weight(mid, grid.delta_theta)) if zi else ti
             for ti, zi, mid in zip(t, z, mids)]
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
    integral runs on Gauss-Legendre panels :func:`panel_edges` lays out
    from d_a and d_b, at least _EXACT_END_CELLS wide and doubling towards
    the middle; the endpoint derivatives come from the six cells around
    each end.  ``f`` maps a list of points to rows of values, and is
    called once."""
    edges = panel_edges(a, b, _EXACT_END_CELLS, d_a, d_b)
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


def _stream_weight_entropy(grid: AngularGrid, pixels: bool,
                           channel: SpinChannel) -> tuple[float, float]:
    """(H_bits, Z) of the normalized detection distribution on a grid's
    cells, counted per polar ring, or with ``pixels`` per sphere pixel.

    For ANTIPARALLEL the detection outcomes split per cell into a direct
    and an exchange branch (the two distinguishable spin patterns), so the
    distribution has two entries per cell.  Counted per pixel, each ring
    cell splits into m = ring_weight(center) equally probable pixels, so
    a ring of weight w contributes w ln(w / m) instead of w ln w.

    The weights' scale makes the first cell, the largest in every channel
    and band reduced here, weigh w_0 ~ 1.  With R = Z - w_0 summed without
    w_0 and T' = sum w ln(w / w_0) <= 0 (Higham, *Accuracy and Stability
    of Numerical Algorithms*, section 4), H = [log1p(R / w_0) - T' / Z] /
    ln 2 is >= 0, and exactly 0 for one cell.  The first cell is summed
    exactly, and so are the _EXACT_END_CELLS cells at an edge within
    twice as many of one of the channel's ``SINGULAR_ANGLES``; the cells
    between, if any, go to :func:`_euler_maclaurin_sum`, so the cost does
    not grow with the number of cells.  The channel is the third
    argument, where the benchmark's tracer reads it.
    """
    n = grid.n_cells
    # a lower edge too close to 0 (5 eV packets of 1e170 nm) underflows the
    # sine products the cell integrals divide by, or math.fsum overflows
    try:
        first, = _cell_terms(grid, 1.0, channel, pixels, (0,))[0]
        terms = partial(_cell_terms, grid, 1.0 / first, channel, pixels)
        # cells from each grid edge to the channel's nearest singular angle
        d_lo, d_hi = (min(abs(edge - s) for s in SINGULAR_ANGLES[channel])
                      / grid.delta_theta
                      for edge in grid.centres((-0.5, n - 0.5)))
        lo = min(n, _EXACT_END_CELLS if d_lo < 2 * _EXACT_END_CELLS else 1)
        hi = min(n - lo, _EXACT_END_CELLS if d_hi < 2 * _EXACT_END_CELLS else 0)
        w, wlnw = terms([*range(lo), *range(n - hi, n)])
        if lo + hi < n:
            z_mid, t_mid = _euler_maclaurin_sum(
                terms, lo - 0.5, n - hi - 0.5, d_lo + lo, d_hi + hi)
            w, wlnw = [*w, z_mid], [*wlnw, t_mid]
        w0, r, t = w[0], math.fsum(w[1:]), math.fsum(wlnw)
    except (ZeroDivisionError, OverflowError) as exc:
        what, where = _RANGE_ERRORS[type(exc)]
        raise NumericalError(
            f"{channel.value}-channel cell weights {what}: the grid's "
            f"lower edge theta = {grid.theta_lo!r} rad is too close to 0 "
            f"({where})") from None
    z = w0 + r
    # finite weights whose w ln(w / m) overflows, or whose Euler-Maclaurin
    # terms do, leave T (or Z) non-finite
    if not (math.isfinite(z) and math.isfinite(t)):
        raise NumericalError(
            f"{channel.value}-channel sums leave the float range: "
            f"Z = sum w = {z!r}, T = sum w ln(w / m) = {t!r}")
    # T' = T - Z ln w_0, which is exactly 0 for one ring cell
    return (math.log1p(r / w0) - (t - z * math.log(w0)) / z) / _LN2, z


def shannon_ring_discrete(ctx: ScatterContext, channel: SpinChannel,
                          n_cells: int | None = None) -> float:
    """Discrete detection entropy (bits) over ring cells.

    This is the entropy of *which detector fires* (and, for ANTIPARALLEL,
    which spin pattern it sees); the extra exchange bit of the
    indistinguishable spin channels is added where spin-sweep prints the
    full spin-state entropy (conventions in ``escatter.spin``).
    """
    grid = ring_grid(ctx, channel, n_cells=n_cells)
    return _stream_weight_entropy(grid, False, channel)[0]


def shannon_sphere_discrete(ctx: ScatterContext,
                            channel: SpinChannel = SpinChannel.SPINLESS) -> float:
    """Per-pixel entropy on the accessible sphere via ring multiplicities.

    A polar ring of width dtheta at angle theta splits into
    m(theta) = 2 pi sin(theta)/dtheta equal pixels, so
    S = -sum_rings P_ring log2(P_ring / m) without ever enumerating
    pixels.  The entropy of the discretized sphere at any energy.
    """
    grid = ring_grid(ctx, channel)
    return _stream_weight_entropy(grid, True, channel)[0]


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
                   pixels: bool) -> tuple[float, AngularGrid]:
    """(H, grid): the discrete entropy, per ring or with ``pixels`` per
    pixel, of the grid of _LIMIT_CELLS equal cells of width delta over
    the channel domain.  Raises NumericalError when delta is not small
    against the cutoff angle epsilon, where only the detector's own grid
    gives the entropy."""
    grid = ring_grid(ctx, channel, n_cells=_LIMIT_CELLS)
    if grid.delta_theta > _LIMIT_MAX_CELL_RATIO * ctx.epsilon:
        raise NumericalError(
            f"cutoff angle epsilon = {ctx.epsilon:.3g} rad is less than "
            f"{1.0 / _LIMIT_MAX_CELL_RATIO:g} continuous-limit cells of "
            f"{grid.delta_theta:.3g} rad, so the limit would be off by more "
            "than 1e-10 bits; the discrete sums "
            "shannon_ring_discrete(n_cells=...) and "
            "shannon_sphere_discrete on the native pixels are exact there")
    return _stream_weight_entropy(grid, pixels, channel)[0], grid


def shannon_ring_jaynes(ctx: ScatterContext, channel: SpinChannel,
                        n_cells: int | None = None) -> float:
    """Continuous-limit ring entropy: S = -int P log2(Lambda P) + log2 N.

    P(theta) is the normalized 1-D detection density over the channel
    domain and Lambda the domain length; N defaults to the native ring
    count.  Valid when the cell width is well below the cutoff angle.
    The integral is the discrete entropy of 2^50 equal cells minus 50.
    """
    n = ring_grid(ctx, channel, n_cells=n_cells).n_cells
    h, _ = _limit_entropy(ctx, channel, False)
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
    h, grid = _limit_entropy(ctx, channel, True)
    omega0 = 2.0 * math.pi * (math.cos(grid.theta_lo) - math.cos(grid.theta_hi))
    return h - math.log2(omega0 / grid.delta_theta ** 2) \
        + math.log2(sphere_pixel_count(ctx, channel))
