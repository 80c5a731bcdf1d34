"""Detector discretizations and per-cell probability integrals, on the
``math`` module alone.

The per-cell probabilities have one route here: closed-form
antiderivatives of the Coulomb densities
(:func:`direct_exchange_cell_integrals`, :func:`parallel_cell_integrals`),
exact to rounding and usable at any (even fractional) cell index.  Each
cell is given by its centre and half-width, never by two rounded edges:
b - a formed from edges near theta carries an error of ulp(theta), which
is 1e-9 of a 2.5e-7 rad cell, and it would make a cell's weight a noisy
function of its index.  The integrals take a sequence of centres and one
half-width and return lists: the entropy reducer evaluates a few hundred
cells a call, too few for array code to pay for importing numpy.  The
test suite referees them against numpy-vectorised copies, Gauss-Legendre
quadrature and mpmath in ``tests/oracles.py``.

The closed forms follow from s = sin^2(theta/2), for which
d(s)/d(theta) = sin(theta)/2 and the densities become rational in s:

    integral f^2 sin dtheta            = (1/(8 K^4)) * [-1/s]
    integral g^2 sin dtheta            = (1/(8 K^4)) * [ 1/(1-s)]
    integral (f-g)^2 sin dtheta        = (1/(8 K^4)) * [A(u)],  u = cos(theta)
        with A(u) = 4*(atanh(u) - u/(1-u^2))

No difference of two antiderivative values is ever formed.  For a cell
[a, b] = [mid - hw, mid + hw], s_b - s_a = sin(mid) sin(hw), and with
d = u_b - u_a = -2 sin(mid) sin(hw) and y = d / (1 - u_a u_b), where
1 - u_a u_b = sin^2(hw) + sin^2(mid),

    (A(u_b) - A(u_a)) / 4 = [atanh(y) - y] - y (cot^2 a + cot^2 b),

whose bracket is taken from its series for small |y|.  Every piece keeps
its relative accuracy at the equator, where A itself cancels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import count, takewhile

from .amplitudes import HALF_SHELL_CHANNELS, SpinChannel
from .kinematics import ScatterContext

#: Absolute slack, 1e-9 of one cell, added to a cell count before flooring
#: so that a whole number of cells up to rounding keeps its last cell.
#: Above about 2**24 cells it is below half an ulp and has no effect.
_DIVISION_SLACK = 1e-9


class GridKind(Enum):
    RINGS = "rings"
    SPHERE_PIXELS = "sphere"


class AngularGrid(namedtuple("AngularGrid", ("kind", "theta_lo", "theta_hi",
                                             "n_cells", "delta_theta"))):
    """A detector discretization over a polar angular domain.

    ``theta_lo``/``theta_hi`` bound the domain and cells are congruent
    intervals of width ``delta_theta`` anchored at ``theta_lo``; a
    trailing partial cell is dropped, so the covered span may end below
    ``theta_hi``.  SPHERE_PIXELS grids split each ring cell into pixels.
    """

    __slots__ = ()

    def __new__(cls, kind: GridKind, theta_lo: float, theta_hi: float,
                n_cells: int, delta_theta: float) -> AngularGrid:
        if n_cells < 1:
            raise ValueError(f"grid needs at least one cell, got {n_cells}")
        if not theta_lo < theta_hi:
            raise ValueError("grid domain is empty (theta_lo >= theta_hi)")
        return super().__new__(cls, kind, theta_lo, theta_hi, n_cells,
                               delta_theta)

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


def channel_domain(ctx: ScatterContext, channel: SpinChannel) -> tuple[float, float]:
    """Angular domain accessible to a channel: full shell for SPINLESS,
    half shell (up to the equator) for the indistinguishable spin
    channels.

    Both are empty when the cutoff angle epsilon is not below pi/2, which
    happens once 2 E b_bar < 1.
    """
    if not ctx.epsilon < 0.5 * math.pi:
        raise ValueError(
            f"cutoff angle epsilon = {ctx.epsilon:.6g} rad is not below "
            f"pi/2 = {0.5 * math.pi:.6g} rad: no scattering angle is "
            "accessible (2 E b_bar < 1)")
    if channel in HALF_SHELL_CHANNELS:
        return (ctx.epsilon, 0.5 * math.pi)
    return (ctx.epsilon, math.pi - ctx.epsilon)


def _cell_count(length: float, delta: float) -> int:
    return int(math.floor(length / delta + _DIVISION_SLACK))


def ring_grid(ctx: ScatterContext, channel: SpinChannel,
              kind: GridKind = GridKind.RINGS) -> AngularGrid:
    """Native ring grid: cells of width ``ctx.delta_theta`` anchored with the
    first cell's lower edge at the cutoff angle epsilon."""
    lo, hi = channel_domain(ctx, channel)
    n = _cell_count(hi - lo, ctx.delta_theta)
    if n < 1:
        raise ValueError(
            "fewer than one detector: cell width "
            f"{ctx.delta_theta:.3e} rad exceeds the domain [{lo:.3e}, {hi:.3e}]")
    return AngularGrid(kind=kind, theta_lo=lo, theta_hi=hi,
                       n_cells=n, delta_theta=ctx.delta_theta)


def uniform_grid(theta_lo: float, theta_hi: float, n_cells: int,
                 kind: GridKind = GridKind.RINGS) -> AngularGrid:
    """A grid with exactly ``n_cells`` equal cells spanning the domain."""
    # AngularGrid rejects n_cells < 1; max() lets it do so for 0 as well
    return AngularGrid(kind=kind, theta_lo=theta_lo, theta_hi=theta_hi,
                       n_cells=n_cells,
                       delta_theta=(theta_hi - theta_lo) / max(n_cells, 1))


def range_grid_below(theta_top: float, theta_r: float,
                     delta_theta: float) -> AngularGrid:
    """Cells for a post-selected range [theta_top - theta_r, theta_top].

    Cells are counted downward from ``theta_top`` so the first cell always
    abuts the top of the range (for equator post-selection, the first cell
    touches pi/2 where the exchange and direct amplitudes interfere
    maximally).  Cells not fully inside the range are dropped.
    """
    n = _cell_count(theta_r, delta_theta)
    if n < 1:
        raise ValueError(
            f"post-selected range {theta_r:.3e} rad holds no complete cell "
            f"of width {delta_theta:.3e} rad")
    lo = theta_top - n * delta_theta
    return AngularGrid(kind=GridKind.RINGS, theta_lo=lo, theta_hi=theta_top,
                       n_cells=n, delta_theta=delta_theta)


def sphere_pixel_count(ctx: ScatterContext, channel: SpinChannel) -> int:
    """Number of square pixels of side delta_theta covering the channel's
    part of the sphere: M = floor(Omega_0 / delta_theta^2), with
    Omega_0 = 2 pi (cos lo - cos hi) over ``channel_domain`` [lo, hi]."""
    lo, hi = channel_domain(ctx, channel)
    omega0 = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
    return int(math.floor(omega0 / ctx.delta_theta ** 2 + _DIVISION_SLACK))


def ring_weight(theta_i: float, delta_theta: float) -> float:
    """Pixels per ring at polar angle theta_i: m_i = 2 pi sin(theta_i) / dtheta."""
    return 2.0 * math.pi * math.sin(theta_i) / delta_theta


def panel_edges(a: float, b: float, first_a: float, first_b: float) -> list[float]:
    """Edges from a to b (a < b) of panels ``first_a`` wide at a and
    ``first_b`` at b, doubling until they meet at (a + b) / 2.  Both
    callers, the Euler-Maclaurin middle and the J(mu) table, make a first
    width max(floor, d/4), d being the end's distance to a singularity."""
    half = 0.5 * (b - a)
    lower, upper = (list(takewhile(lambda o: o < half,
                                   (w * (2.0 ** k - 1.0) for k in count())))
                    for w in (first_a, first_b))
    return [a + o for o in lower] + [a + half] + [b - o for o in upper[::-1]]


# ---------------------------------------------------------------------------
# closed-form cell integrals
# ---------------------------------------------------------------------------

def direct_exchange_cell_integrals(mids, hw: float, K: float
                                   ) -> tuple[list[float], list[float]]:
    """Per-cell (2 pi * integral f^2 sin, 2 pi * integral g^2 sin) over the
    cells [mid - hw, mid + hw], one pair of lists over ``mids``.

    sin^2 and cos^2 of each half-angle are formed directly, so both stay
    relatively accurate near their zeros."""
    sin, cos = math.sin, math.cos
    c = math.pi / (4.0 * K ** 4)
    sin_hw = sin(hw)
    direct, exchange = [], []
    for mid in mids:
        half_a, half_b = 0.5 * (mid - hw), 0.5 * (mid + hw)
        sa, ca, sb, cb = sin(half_a), cos(half_a), sin(half_b), cos(half_b)
        cds = c * (sin(mid) * sin_hw)  # c (s_b - s_a), without cancellation
        direct.append(cds / ((sa * sa) * (sb * sb)))
        exchange.append(cds / ((ca * ca) * (cb * cb)))
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


def parallel_cell_integrals(mids, hw: float, K: float) -> list[float]:
    """Per-cell 2 pi * integral (f-g)^2 sin dtheta over the cells
    [mid - hw, mid + hw], to rounding everywhere, the equator included.

    Once a cell's lower edge is within about 1e-8 of its width from 0
    (from about 1e18 eV at 1 um), 1 + y cancels and y rounds to -1, where
    atanh is -inf: the cell gets the weight -inf, which the entropy
    reducer reports as non-finite."""
    sin, cos = math.sin, math.cos
    sh, ch = sin(hw), cos(hw)
    c4 = 4.0 * (math.pi / (4.0 * K ** 4))
    out = []
    for mid in mids:
        sm, cm = sin(mid), cos(mid)
        y = -2.0 * sm * sh / (sh * sh + sm * sm)
        if y <= -1.0:
            out.append(-math.inf)
            continue
        # cos and sin of a = mid - hw and b = mid + hw by the addition
        # theorems, so cos stays relatively accurate at pi/2
        cot_a = (cm * ch + sm * sh) / (sm * ch - cm * sh)
        cot_b = (cm * ch - sm * sh) / (sm * ch + cm * sh)
        out.append(c4 * (_atanh_minus_identity(y)
                         - y * (cot_a * cot_a + cot_b * cot_b)))
    return out


def channel_cell_integrals(mids, hw: float, K: float,
                           channel: SpinChannel) -> list[float]:
    """Per-cell 2 pi * integral p(theta) sin(theta) dtheta for one channel
    over the cells [mid - hw, mid + hw], one list over ``mids``."""
    if channel is SpinChannel.SPINLESS:
        return direct_exchange_cell_integrals(mids, hw, K)[0]
    if channel is SpinChannel.PARALLEL:
        return parallel_cell_integrals(mids, hw, K)
    if channel is SpinChannel.ANTIPARALLEL:
        F, G = direct_exchange_cell_integrals(mids, hw, K)
        return [f + g for f, g in zip(F, G)]
    raise ValueError(f"unknown spin channel: {channel!r}")
