"""Detector discretizations, per-cell probability integrals and the
package's Gauss-Legendre nodes.

The per-cell probabilities have one route here: closed-form
antiderivatives of the Coulomb densities
(:func:`direct_exchange_cell_integrals`, :func:`parallel_cell_integrals`),
exact to rounding and usable at any (even fractional) cell index.  Each
cell is given by its centre and half-width, never by two rounded edges:
b - a formed from edges near theta carries an error of ulp(theta), which
is 1e-9 of a 2.5e-7 rad cell, and it would make a cell's weight a noisy
function of its index.  The test suite referees the closed forms against
Gauss-Legendre quadrature and mpmath in ``tests/oracles.py``.

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

:func:`_gl_nodes` caches the Gauss-Legendre nodes of the package: the
Euler-Maclaurin sums of ``escatter.entropy`` and the meridian kernel
J(mu) of ``escatter.density_matrix`` use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .amplitudes import HALF_SHELL_CHANNELS, SpinChannel
from .kinematics import ScatterContext

#: Absolute slack, 1e-9 of one cell, added to a cell count before flooring
#: so that a whole number of cells up to rounding keeps its last cell.
#: Above about 2**24 cells it is below half an ulp and has no effect.
_DIVISION_SLACK = 1e-9


#: Gauss-Legendre nodes and weights on [-1, 1], cached by order
_gl_nodes = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


class GridKind(Enum):
    RINGS = "rings"
    SPHERE_PIXELS = "sphere"


@dataclass(frozen=True)
class AngularGrid:
    """A detector discretization over a polar angular domain.

    ``theta_lo``/``theta_hi`` bound the domain and cells are congruent
    intervals of width ``delta_theta`` anchored at ``theta_lo``; a
    trailing partial cell is dropped, so the covered span may end below
    ``theta_hi``.  SPHERE_PIXELS grids split each ring cell into pixels.
    """

    kind: GridKind
    theta_lo: float
    theta_hi: float
    n_cells: int
    delta_theta: float

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError(f"grid needs at least one cell, got {self.n_cells}")
        if not self.theta_lo < self.theta_hi:
            raise ValueError("grid domain is empty (theta_lo >= theta_hi)")

    def centres(self, x) -> np.ndarray:
        """Centres theta_lo + (x + 1/2) delta_theta of the cells at
        indices ``x``; a fractional index is a point between cell centres,
        where the cell integrals are smooth functions of x."""
        return self.theta_lo + (np.asarray(x, dtype=float) + 0.5) * self.delta_theta


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


def ring_weight(theta_i: float | np.ndarray,
                delta_theta: float) -> float | np.ndarray:
    """Pixels per ring at polar angle(s) theta_i: m_i = 2 pi sin(theta_i) / dtheta."""
    return 2.0 * math.pi * np.sin(theta_i) / delta_theta


# ---------------------------------------------------------------------------
# closed-form cell integrals
# ---------------------------------------------------------------------------

def _half_angle_s(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sin^2(theta/2), cos^2(theta/2)), each computed directly so
    both stay relatively accurate near their zeros."""
    half = 0.5 * theta
    sh = np.sin(half)
    ch = np.cos(half)
    return sh * sh, ch * ch


def direct_exchange_cell_integrals(mid, hw, K: float
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (2 pi * integral f^2 sin, 2 pi * integral g^2 sin) over the
    cells [mid - hw, mid + hw]."""
    s_a, c_a = _half_angle_s(mid - hw)
    s_b, c_b = _half_angle_s(mid + hw)
    ds = np.sin(mid) * np.sin(hw)  # s_b - s_a, without cancellation
    c = math.pi / (4.0 * K ** 4)
    return c * ds / (s_a * s_b), c * ds / (c_a * c_b)


#: below this |y| atanh(y) - y is summed from its series, which reaches
#: full precision in fourteen terms; above it atanh(y) - y loses at most
#: a factor 3 / y^2 = 48 of its relative accuracy
_ATANH_SERIES_CUT = 0.25


def _atanh_minus_identity(y: np.ndarray) -> np.ndarray:
    """atanh(y) - y = sum_{k>=1} y^(2k+1) / (2k+1), without cancellation."""
    y2 = y * y
    series = np.zeros_like(y2)
    for k in range(14, 0, -1):  # Horner in y^2
        series = y2 * (1.0 / (2 * k + 1) + series)
    return np.where(np.abs(y) < _ATANH_SERIES_CUT, y * series, np.arctanh(y) - y)


def parallel_cell_integrals(mid, hw, K: float) -> np.ndarray:
    """Per-cell 2 pi * integral (f-g)^2 sin dtheta over the cells
    [mid - hw, mid + hw], to rounding everywhere, the equator included."""
    sm, cm = np.sin(mid), np.cos(mid)
    sh, ch = np.sin(hw), np.cos(hw)
    # cos and sin of a = mid - hw and b = mid + hw by the addition
    # theorems, so cos stays relatively accurate at pi/2
    u_a, u_b = cm * ch + sm * sh, cm * ch - sm * sh
    sin_a, sin_b = sm * ch - cm * sh, sm * ch + cm * sh
    y = -2.0 * sm * sh / (sh * sh + sm * sm)
    cot2 = (u_a / sin_a) ** 2 + (u_b / sin_b) ** 2
    c = math.pi / (4.0 * K ** 4)
    return 4.0 * c * (_atanh_minus_identity(y) - y * cot2)


def channel_cell_integrals(mid, hw, K: float,
                           channel: SpinChannel) -> np.ndarray:
    """Per-cell 2 pi * integral p(theta) sin(theta) dtheta for one channel
    over the cells [mid - hw, mid + hw]."""
    if channel is SpinChannel.SPINLESS:
        return direct_exchange_cell_integrals(mid, hw, K)[0]
    if channel is SpinChannel.PARALLEL:
        return parallel_cell_integrals(mid, hw, K)
    if channel is SpinChannel.ANTIPARALLEL:
        F, G = direct_exchange_cell_integrals(mid, hw, K)
        return F + G
    raise ValueError(f"unknown spin channel: {channel!r}")
