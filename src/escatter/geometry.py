"""Detector discretizations and per-cell probability integrals.

The per-cell probabilities have one route here: closed-form
antiderivatives of the Coulomb densities
(:func:`direct_exchange_cell_integrals`, :func:`parallel_cell_integrals`),
exact to rounding and usable for tens of millions of cells.  The test
suite referees them cell by cell against an independent Gauss-Legendre
quadrature of the channel density in ``tests/oracles.py``.

The closed forms follow from s = sin^2(theta/2), for which
d(s)/d(theta) = sin(theta)/2 and the densities become rational in s:

    integral f^2 sin dtheta            = (1/(8 K^4)) * [-1/s]
    integral g^2 sin dtheta            = (1/(8 K^4)) * [ 1/(1-s)]
    integral f g sin dtheta            = (1/(8 K^4)) * [ln(s/(1-s))]
    integral (f-g)^2 sin dtheta        = (1/(8 K^4)) * [A(u)],  u = cos(theta)
        with A(u) = 4*(atanh(u) - u/(1-u^2))

Near the equator A(u) suffers catastrophic cancellation, so it is
evaluated there by its odd series A(u) = -sum_k (8k/(2k+1)) u^(2k+1).
Differences of s across a cell are formed with the product identity
sin^2(b) - sin^2(a) = sin(a+b) sin(b-a), never by direct subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .amplitudes import HALF_SHELL_CHANNELS, SpinChannel
from .kinematics import ScatterContext

#: Default number of cells per chunk when streaming very large grids.
CHUNK_CELLS = 1 << 20

#: Relative tolerance dividing "exactly divisible" from "one cell fewer"
#: when a domain length is a near-integer multiple of the cell width.
_DIVISION_SLACK = 1e-9


class GridKind(Enum):
    RINGS = "rings"
    SPHERE_PIXELS = "sphere"
    EQUATOR_RING = "equator"


@dataclass(frozen=True)
class AngularGrid:
    """A detector discretization over an angular domain.

    For RINGS / SPHERE_PIXELS kinds, ``theta_lo``/``theta_hi``
    bound the polar domain and cells are congruent intervals of width
    ``delta_theta`` anchored at ``theta_lo``; a trailing partial cell is
    dropped, so the covered span may end below ``theta_hi``.  For
    EQUATOR_RING the angles are azimuthal (phi in [0, pi)) and the cells
    are exactly uniform.
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

    def edges(self, i0: int = 0, i1: int | None = None) -> np.ndarray:
        """Cell edges from cell ``i0`` up to cell ``i1`` (exclusive)."""
        if i1 is None:
            i1 = self.n_cells
        idx = np.arange(i0, i1 + 1, dtype=float)
        return self.theta_lo + idx * self.delta_theta

    def iter_edge_chunks(self, chunk_cells: int = CHUNK_CELLS) -> Iterator[np.ndarray]:
        """Yield edge arrays covering consecutive runs of cells.

        Each yielded array holds ``m + 1`` edges for ``m`` cells; the runs
        tile the grid in order, so streaming consumers stay O(chunk) in
        memory even for grids with tens of millions of cells.
        """
        i0 = 0
        while i0 < self.n_cells:
            i1 = min(i0 + chunk_cells, self.n_cells)
            yield self.edges(i0, i1)
            i0 = i1


def channel_domain(ctx: ScatterContext, channel: SpinChannel) -> tuple[float, float]:
    """Angular domain accessible to a channel: full shell for SPINLESS and
    DISTINGUISHABLE, half shell (up to the equator) for the
    indistinguishable spin channels.

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
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    if not theta_lo < theta_hi:
        raise ValueError("empty domain")
    return AngularGrid(kind=kind, theta_lo=theta_lo, theta_hi=theta_hi,
                       n_cells=n_cells,
                       delta_theta=(theta_hi - theta_lo) / n_cells)


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


def equator_grid(n_cells: int) -> AngularGrid:
    """Half-ring of detectors on the equator, azimuth phi in [0, pi)."""
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    return AngularGrid(kind=GridKind.EQUATOR_RING, theta_lo=0.0,
                       theta_hi=math.pi, n_cells=n_cells,
                       delta_theta=math.pi / n_cells)


def sphere_pixel_count(ctx: ScatterContext) -> int:
    """Number of square pixels of side delta_theta covering the accessible
    sphere: M = floor(Omega_0 / delta_theta^2) with Omega_0 = 4 pi cos(eps)."""
    omega0 = 4.0 * math.pi * math.cos(ctx.epsilon)
    return int(math.floor(omega0 / (ctx.delta_theta ** 2) + _DIVISION_SLACK))


def ring_weight(theta_i: float | np.ndarray,
                delta_theta: float) -> float | np.ndarray:
    """Pixels per ring at polar angle(s) theta_i: m_i = 2 pi sin(theta_i) / dtheta."""
    return 2.0 * math.pi * np.sin(theta_i) / delta_theta


# ---------------------------------------------------------------------------
# closed-form cell integrals
# ---------------------------------------------------------------------------

def _half_angle_s(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sin^2(theta/2), cos^2(theta/2)) per edge, each computed
    directly so both stay relatively accurate near their zeros."""
    half = 0.5 * edges
    sh = np.sin(half)
    ch = np.cos(half)
    return sh * sh, ch * ch


def _ds(edges: np.ndarray) -> np.ndarray:
    """s(theta_hi) - s(theta_lo) per cell via the product identity
    sin^2(b) - sin^2(a) = sin(a+b) sin(b-a) (no cancellation)."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    return np.sin(mid) * np.sin(hw)


def direct_exchange_cell_integrals(edges: np.ndarray, K: float
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (2 pi * integral f^2 sin, 2 pi * integral g^2 sin)."""
    s, cs = _half_angle_s(edges)
    ds = _ds(edges)
    c = math.pi / (4.0 * K ** 4)
    F = c * ds / (s[:-1] * s[1:])
    G = c * ds / (cs[:-1] * cs[1:])
    return F, G


#: series switch point for A(u); below this |u| the closed form cancels.
_A_SERIES_CUT = 0.1


def _a_antideriv(edges: np.ndarray) -> np.ndarray:
    """A(u(theta)) per edge, where A is the antiderivative (in s) of
    (f-g)^2 sin(theta) stripped of the 1/(8 K^4) prefactor."""
    s, cs = _half_angle_s(edges)
    u = np.cos(edges)
    out = np.empty_like(u)

    small = np.abs(u) < _A_SERIES_CUT
    if np.any(small):
        us = u[small]
        u2 = us * us
        acc = np.zeros_like(us)
        # A(u) = -sum_{k>=1} (8k / (2k+1)) u^(2k+1); |u| < 0.1 converges
        # to full precision within ten terms.
        upow = us * u2
        for k in range(1, 11):
            acc -= (8.0 * k / (2.0 * k + 1.0)) * upow
            upow = upow * u2
        out[small] = acc
    big = ~small
    if np.any(big):
        # 4*atanh(u) - u/(s*(1-s)); atanh via the half-angle pieces so the
        # edges near the forward/backward singularities keep relative
        # accuracy (1 -/+ u would lose it).
        at = 0.5 * np.log(cs[big] / s[big])
        out[big] = 4.0 * at - u[big] / (s[big] * cs[big])
    return out


def parallel_cell_integrals(edges: np.ndarray, K: float) -> np.ndarray:
    """Per-cell 2 pi * integral (f-g)^2 sin dtheta, stable at the equator."""
    a = _a_antideriv(edges)
    c = math.pi / (4.0 * K ** 4)
    return c * (a[1:] - a[:-1])


def channel_cell_integrals(edges: np.ndarray, K: float,
                           channel: SpinChannel) -> np.ndarray:
    """Per-cell 2 pi * integral p(theta) sin(theta) dtheta for one channel."""
    if channel in (SpinChannel.SPINLESS, SpinChannel.DISTINGUISHABLE):
        return direct_exchange_cell_integrals(edges, K)[0]
    if channel is SpinChannel.PARALLEL:
        return parallel_cell_integrals(edges, K)
    if channel is SpinChannel.ANTIPARALLEL:
        F, G = direct_exchange_cell_integrals(edges, K)
        return F + G
    raise ValueError(f"unknown spin channel: {channel!r}")
