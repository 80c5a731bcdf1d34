"""Detector discretizations and per-cell probability integrals, on the
``math`` module alone.  A grid is its polar cells (whether a cell counts
as a ring or as its sphere pixels is the entropy reducer's choice), and
a channel's grid has one resolver, :func:`ring_grid`, which also decides
the channel's domain: the full shell [epsilon, pi - epsilon] for
SPINLESS, the half shell [epsilon, pi/2] for the indistinguishable spin
channels, inside which :func:`range_grid_below` lays post-selection
bands down from pi/2.  ``SINGULAR_ANGLES`` lists where each channel's
densities have poles and zeros.

The per-cell probabilities have one route here: closed-form
antiderivatives of the Coulomb densities
(:func:`direct_exchange_cell_integrals`, :func:`parallel_cell_integrals`),
exact to rounding and usable at any (even fractional) cell index.
:func:`channel_cell_integrals` picks a spin channel's branches from
them, the distinguishable outcomes within a cell: |f|^2 for SPINLESS,
|f - g|^2 for PARALLEL, and |f|^2 and |g|^2 for ANTIPARALLEL's two spin
patterns.

Each cell is given by its centre and half-width, never by two rounded
edges: b - a formed from edges near theta carries an error of
ulp(theta), which is 1e-9 of a 2.5e-7 rad cell, and it would make a
cell's weight a noisy function of its index; so would the parallel
weight ~ x^2 given x = pi/2 - theta rounded by ulp(pi/2) in a centre.
The integrals take centres, their x (:meth:`AngularGrid.below_equator`)
and one half-width and return lists: the entropy reducer evaluates a
few hundred cells a call, too few for array code to pay for importing
numpy.  The test suite referees them against numpy-vectorised copies,
Gauss-Legendre quadrature and mpmath in ``tests/oracles.py``.

The closed forms follow from s = sin^2(theta/2), for which
d(s)/d(theta) = sin(theta)/2 and the densities become rational in s; the
integrals take their only K-dependence, c = pi / (4 K^4), as an argument:

    2 pi integral f^2 sin dtheta       = c * [-1/s]
    2 pi integral g^2 sin dtheta       = c * [ 1/(1-s)]
    2 pi integral (f-g)^2 sin dtheta   = c * [A(u)],  u = cos(theta)
        with A(u) = 4*(atanh(u) - u/(1-u^2))

No difference of two antiderivative values is ever formed.  For a cell
[a, b] = [mid - hw, mid + hw], s_b - s_a = sin(mid) sin(hw), and with
d = u_b - u_a = -2 sin(mid) sin(hw) and y = d / (1 - u_a u_b), where
1 - u_a u_b = sin^2(hw) + sin^2(mid),

    (A(u_b) - A(u_a)) / 4 = [atanh(y) - y] - y (cot^2 a + cot^2 b),

whose bracket is taken from its series for small |y|, and cos(mid -+ hw)
in cot a, cot b as sin(x +- hw).  Every piece keeps its relative
accuracy at the equator, where A itself cancels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import count, takewhile

from .amplitudes import SpinChannel
from .errors import NumericalError
from .kinematics import ScatterContext

#: Absolute slack, 1e-9 of one cell, added to a cell count before flooring
#: so that a whole number of cells up to rounding keeps its last cell.
#: Above about 2**24 cells it is below half an ulp and has no effect.
_DIVISION_SLACK = 1e-9


class AngularGrid(namedtuple("AngularGrid", ("theta_lo", "theta_hi",
                                             "n_cells", "delta_theta"))):
    """A detector discretization over a polar angular domain: its cells.

    ``theta_lo``/``theta_hi`` bound the domain and cells are congruent
    intervals of width ``delta_theta`` anchored at ``theta_lo``; a
    trailing partial cell is dropped, so the covered span may end below
    ``theta_hi``.  Whether a cell counts as one polar ring or as the
    sphere pixels it holds is the entropy reducer's choice, not the grid's.
    """

    __slots__ = ()

    def __new__(cls, theta_lo: float, theta_hi: float, n_cells: int,
                delta_theta: float) -> AngularGrid:
        if n_cells < 1:
            raise ValueError(f"grid needs at least one cell, got {n_cells}")
        if not theta_lo < theta_hi:
            raise ValueError("grid domain is empty (theta_lo >= theta_hi)")
        return super().__new__(cls, theta_lo, theta_hi, n_cells, delta_theta)

    @classmethod
    def _make(cls, iterable) -> AngularGrid:
        # through __new__, so that _replace checks its result as well
        return cls(*iterable)

    def centres(self, xs) -> list[float]:
        """Centres theta_lo + (x + 1/2) delta_theta of the cells at the
        indices ``xs``; a fractional index is a point between cell centres,
        where the cell integrals are smooth functions of x."""
        lo, delta = self.theta_lo, self.delta_theta
        return [lo + (x + 0.5) * delta for x in xs]

    def below_equator(self, xs) -> list[float]:
        """Distances pi/2 - theta of the same points: gap + (n - x - 1/2)
        delta_theta, gap from the top cell to pi/2, 0 for a band that
        :func:`range_grid_below` lays down from the true pi/2."""
        n, delta = self.n_cells, self.delta_theta
        gap = 0.5 * math.pi - (self.theta_lo + n * delta)
        return [gap + (n - x - 0.5) * delta for x in xs]


def _cell_count(length: float, delta: float) -> int:
    return int(math.floor(length / delta + _DIVISION_SLACK))


def ring_grid(ctx: ScatterContext, channel: SpinChannel,
              n_cells: int | None = None) -> AngularGrid:
    """A channel's grid over its domain: the full shell [epsilon,
    pi - epsilon] for SPINLESS, the half shell [epsilon, pi/2] for the
    indistinguishable spin channels, both empty once 2 E b_bar < 1 puts
    the cutoff angle epsilon at or above pi/2.  With ``n_cells`` that many
    equal cells, else the native grid, cells of ``ctx.delta_theta``; the
    ring and the sphere-pixel sums take the same grid."""
    if not ctx.epsilon < 0.5 * math.pi:
        raise ValueError(
            f"cutoff angle epsilon = {ctx.epsilon:.6g} rad is not below "
            f"pi/2 = {0.5 * math.pi:.6g} rad: no scattering angle is "
            "accessible (2 E b_bar < 1)")
    lo = ctx.epsilon
    hi = math.pi - lo if channel is SpinChannel.SPINLESS else 0.5 * math.pi
    if n_cells is not None:
        # AngularGrid rejects n_cells < 1; max() lets it do so for 0 as well
        return AngularGrid(lo, hi, n_cells, (hi - lo) / max(n_cells, 1))
    n = _cell_count(hi - lo, ctx.delta_theta)
    if n < 1:
        raise ValueError(
            "fewer than one detector: cell width "
            f"{ctx.delta_theta:.3e} rad exceeds the domain [{lo:.3e}, {hi:.3e}]")
    return AngularGrid(lo, hi, n, ctx.delta_theta)


def range_grid_below(ctx: ScatterContext, theta_r: float) -> AngularGrid:
    """Cells of ``ctx.delta_theta`` for the post-selected band
    [pi/2 - theta_r, pi/2], which must lie in the half shell of
    :func:`ring_grid`: theta_r in (0, pi/2 - epsilon].

    Cells are counted downward from pi/2 so the first cell always abuts
    the equator, where the exchange and direct amplitudes interfere
    maximally.  Cells not fully inside the band are dropped.
    """
    lo, top = ring_grid(ctx, SpinChannel.PARALLEL, n_cells=1)[:2]  # half shell
    if not 0.0 < theta_r <= top - lo:
        raise ValueError(
            f"acceptance half-angle {theta_r!r} outside (0, pi/2 - cutoff]")
    n = _cell_count(theta_r, ctx.delta_theta)
    if n < 1:
        raise ValueError(
            f"post-selected range {theta_r:.3e} rad holds no complete cell "
            f"of width {ctx.delta_theta:.3e} rad")
    return AngularGrid(top - n * ctx.delta_theta, top, n, ctx.delta_theta)


def sphere_pixel_count(ctx: ScatterContext, channel: SpinChannel) -> int:
    """Number of square pixels of side delta_theta covering the channel's
    part of the sphere: M = floor(Omega_0 / delta_theta^2), with
    Omega_0 = 2 pi (cos lo - cos hi) over the channel's domain [lo, hi],
    the span of its :func:`ring_grid`.  Where the float quotient
    overflows, M is the exact integer quotient of Omega_0 and delta_theta^2
    as the floats they are; a delta_theta^2 that underflows to 0 raises."""
    span = ring_grid(ctx, channel, n_cells=1)
    omega0 = 2.0 * math.pi * (math.cos(span.theta_lo) - math.cos(span.theta_hi))
    area = ctx.delta_theta ** 2
    if not area > 0.0:
        raise NumericalError(
            "sphere pixel count Omega_0 / delta_theta^2 leaves the float range "
            f"(pixel side delta_theta = {ctx.delta_theta!r} rad)")
    if omega0 / area < math.inf:
        return _cell_count(omega0, area)
    (a, b), (c, d) = omega0.as_integer_ratio(), ctx.delta_theta.as_integer_ratio()
    return (a * d * d) // (b * c * c)


def ring_weight(theta_i: float, delta_theta: float) -> float:
    """Pixels per ring at polar angle theta_i: m_i = 2 pi sin(theta_i) / dtheta."""
    return 2.0 * math.pi * math.sin(theta_i) / delta_theta


def panel_edges(a: float, b: float, floor: float,
                d_a: float, d_b: float) -> list[float]:
    """Edges from a to b (a < b) of panels doubling from each end until
    they meet at (a + b) / 2.  The first panel at an end d from its nearest
    singularity (d_a at a, d_b at b) is max(floor, d/4) wide, which keeps
    the singularity out of every panel's Bernstein ellipse."""
    half = 0.5 * (b - a)
    lower, upper = (list(takewhile(lambda o: o < half,
                                   (w * (2.0 ** k - 1.0) for k in count())))
                    for w in (max(floor, d / 4.0) for d in (d_a, d_b)))
    return [a + o for o in lower] + [a + half] + [b - o for o in upper[::-1]]


# ---------------------------------------------------------------------------
# closed-form cell integrals
# ---------------------------------------------------------------------------

def direct_exchange_cell_integrals(mids, hw: float, c: float
                                   ) -> tuple[list[float], list[float]]:
    """Per-cell (2 pi * integral f^2 sin, 2 pi * integral g^2 sin) over the
    cells [mid - hw, mid + hw] at the multiplier c, one pair of lists.

    The half-angle sines and cosines are formed directly, so they stay
    relatively accurate near their zeros, and 1/s_a - 1/s_b is taken as
    (sin hw / (sa sb)) (sin mid / (sa sb)), sa = sin(a/2), sb = sin(b/2),
    alike with cosines: no factor is smaller than the weight, while
    sa^2 sb^2 is subnormal below a lower edge of about 2e-77 rad."""
    sin, cos = math.sin, math.cos
    sin_hw = sin(hw)
    direct, exchange = [], []
    for mid in mids:
        half_a, half_b = 0.5 * (mid - hw), 0.5 * (mid + hw)
        sab = sin(half_a) * sin(half_b)
        cab = cos(half_a) * cos(half_b)
        sin_mid = sin(mid)
        # c last: c sin(hw) can be subnormal where the weight is not
        direct.append(c * ((sin_hw / sab) * (sin_mid / sab)))
        exchange.append(c * ((sin_hw / cab) * (sin_mid / cab)))
    return direct, exchange


#: below this |y| atanh(y) - y is summed from its series, which reaches
#: full precision in fourteen terms; above it atanh(y) - y loses at most
#: a factor 3 / y^2 = 48 of its relative accuracy
_ATANH_SERIES_CUT = 0.25
#: the series' coefficients 1 / (2k + 1), k = 14 down to 1, in Horner order
_ATANH_SERIES = tuple(1.0 / (2 * k + 1) for k in range(14, 0, -1))


def _atanh_minus_identity(y: float) -> float:
    """atanh(y) - y = sum_{k>=1} y^(2k+1) / (2k+1) for |y| < 1, without
    cancellation."""
    if abs(y) < _ATANH_SERIES_CUT:
        y2 = y * y
        series = 0.0
        for inv in _ATANH_SERIES:  # Horner in y^2
            series = y2 * (inv + series)
        return y * series
    return math.atanh(y) - y


def parallel_cell_integrals(mids, below, hw: float, c: float) -> list[float]:
    """Per-cell 2 pi * integral (f-g)^2 sin dtheta over the cells
    [mid - hw, mid + hw] at c, to rounding everywhere, the equator included,
    from the centres' distances x = pi/2 - mid in ``below``.

    Once a cell's lower edge is within about 1e-8 of its width from 0
    (from about 1e18 eV at 1 um), or its upper edge from pi, 1 + y cancels
    and y rounds to -1, where atanh is -inf: the cell gets the weight
    -inf, which the entropy reducer reports as non-finite."""
    sin = math.sin
    sh = sin(hw)
    c4 = 4.0 * c
    out = []
    for mid, x in zip(mids, below):
        sm = sin(mid)
        y = -2.0 * sm * sh / (sh * sh + sm * sm)
        if y <= -1.0:
            out.append(-math.inf)
            continue
        cot_a = sin(x + hw) / sin(mid - hw)
        cot_b = sin(x - hw) / sin(mid + hw)
        out.append(c4 * (_atanh_minus_identity(y)
                         - y * (cot_a * cot_a + cot_b * cot_b)))
    return out


#: where a channel's cell weights are not analytic in the cell index: 0,
#: the pole of f; pi, the pole of g and the zero of sin(theta); pi/2 for
#: PARALLEL, the double zero of (f - g)^2
SINGULAR_ANGLES = {SpinChannel.SPINLESS: (0.0, math.pi),
                   SpinChannel.PARALLEL: (0.0, 0.5 * math.pi, math.pi),
                   SpinChannel.ANTIPARALLEL: (0.0, math.pi)}


def channel_cell_integrals(mids, below, hw: float, c: float,
                           channel: SpinChannel) -> tuple[list[float], ...]:
    """A channel's branches over the cells [mid - hw, mid + hw] (``below``:
    pi/2 - mid, read by PARALLEL alone): per branch, a list of
    2 pi * integral p sin dtheta at c.

    A branch is a distinguishable outcome within a cell.  SPINLESS has
    one, |f|^2; PARALLEL one, |f - g|^2; ANTIPARALLEL two, |f|^2 and
    |g|^2, the direct and the exchange spin pattern.  This is the one
    place that decides which densities a channel's cells carry."""
    if channel is SpinChannel.SPINLESS:
        return (direct_exchange_cell_integrals(mids, hw, c)[0],)
    if channel is SpinChannel.PARALLEL:
        return (parallel_cell_integrals(mids, below, hw, c),)
    if channel is SpinChannel.ANTIPARALLEL:
        return direct_exchange_cell_integrals(mids, hw, c)
    raise ValueError(f"unknown spin channel: {channel!r}")
