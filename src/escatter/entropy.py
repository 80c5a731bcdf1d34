"""Discrete Shannon entropies of detector distributions, and their
continuous-limit evaluation for astronomically many pixels.

Two evaluation styles coexist:

* the *discrete* sums walk every ring cell (streamed in chunks, so grids
  with 10^7+ cells stay cheap) and are exact for the given detector
  layout;
* the *continuous-limit* forms split the entropy into an integral plus
  ``log2(n_detectors)``.  They are the n -> infinity limit of the sums
  and are accurate once the cell width is small compared to the cutoff
  angle; outside that regime only the discrete sums are trustworthy.

All discrete sums go through one streamed reducer.  For the per-pixel
sphere entropy it never enumerates pixels: a ring at polar angle theta
holds m = 2 pi sin(theta)/dtheta equally probable pixels, so the sum
runs over rings with a multiplicity factor and remains O(#rings) even
for 10^9+ pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .amplitudes import SpinChannel, differential_probability
from .errors import NumericalError
from .geometry import (
    AngularGrid,
    GridKind,
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


@dataclass(frozen=True)
class ProbabilityVector:
    """Normalized detection probabilities attached to a grid."""

    p: np.ndarray
    grid: AngularGrid | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(
                f"probability vector not normalized: sum = {float(p.sum())!r}")
        object.__setattr__(self, "p", p)


def shannon_discrete(p) -> float:
    """Shannon entropy -sum p_i log2 p_i in bits, with 0 log 0 := 0.

    Accepts a :class:`ProbabilityVector` or a plain normalized array.
    """
    if not isinstance(p, ProbabilityVector):
        p = ProbabilityVector(p=p)
    pos = p.p[p.p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


# ---------------------------------------------------------------------------
# streamed discrete sums
# ---------------------------------------------------------------------------

def _stream_weight_entropy(grid: AngularGrid, K: float,
                           channel: SpinChannel) -> tuple[float, float]:
    """Accumulate (H_bits, Z) of the normalized detection distribution.

    For ANTIPARALLEL the detection outcomes split per cell into a direct
    and an exchange branch (the two distinguishable spin patterns), so the
    distribution has two entries per cell.  On a SPHERE_PIXELS grid each
    ring cell splits into m = ring_weight(center) equally probable pixels,
    so a ring of weight w contributes w ln(w / m) instead of w ln w.

    Uses H(w/Z) = ln(Z)/ln2 - (sum w ln w) / (Z ln2), accumulated in fixed
    chunk order for bit-reproducibility.
    """
    sphere = grid.kind is GridKind.SPHERE_PIXELS
    z = 0.0
    t = 0.0  # sum of w * ln(w), or of w * ln(w / m) on the sphere
    for edges in grid.iter_edge_chunks():
        if sphere:
            m = ring_weight(0.5 * (edges[:-1] + edges[1:]), grid.delta_theta)
        if channel is SpinChannel.ANTIPARALLEL:
            branches = direct_exchange_cell_integrals(edges, K)
        else:
            branches = (channel_cell_integrals(edges, K, channel),)
        for w in branches:
            keep = w > 0.0
            # w > 0 also drops NaN and -inf: look at what it dropped (an
            # inf weight is kept and makes the entropy below non-finite)
            if not keep.all() and not np.isfinite(w[~keep]).all():
                raise NumericalError(
                    f"non-finite cell weight in the {channel.value} chunk "
                    f"starting at theta = {float(edges[0])!r}")
            wk = w[keep]
            z += float(wk.sum())
            t += float((wk * np.log(wk / m[keep] if sphere else wk)).sum())
    if z <= 0.0:
        return 0.0, 0.0
    h = (math.log(z) - t / z) / _LN2
    if not math.isfinite(h):
        raise NumericalError(f"detection entropy is {h!r} (Z = {z!r})")
    # the sum is >= 0 mathematically; rounding can leave -1e-16
    return max(0.0, h), z


def detection_entropy_bits(grid: AngularGrid, K: float,
                           channel: SpinChannel) -> float:
    """Shannon entropy (bits) of the detection distribution over a grid.

    This is the entropy of *which detector fires* (and, for ANTIPARALLEL,
    which spin pattern it sees); the extra exchange bit of the
    indistinguishable spin channels is added by the spin module where the
    full spin-state entropy is wanted.
    """
    if grid.kind is GridKind.EQUATOR_RING:
        # Azimuthal cells are exactly uniform: closed forms, no quadrature.
        if channel is SpinChannel.ANTIPARALLEL:
            return math.log2(2 * grid.n_cells)
        return math.log2(grid.n_cells)
    h, _ = _stream_weight_entropy(grid, K, channel)
    return h


def ring_probabilities(ctx: ScatterContext, channel: SpinChannel,
                       n_cells: int | None = None) -> ProbabilityVector:
    """Normalized per-ring probabilities on the channel's native grid
    (or on ``n_cells`` equal cells spanning the channel domain)."""
    grid = _resolve_grid(ctx, channel, n_cells)
    w = channel_cell_integrals(grid.edges(), ctx.K, channel)
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("all cell weights vanished")
    return ProbabilityVector(p=w / total, grid=grid)


def _resolve_grid(ctx: ScatterContext, channel: SpinChannel,
                  n_cells: int | None,
                  kind: GridKind = GridKind.RINGS) -> AngularGrid:
    if n_cells is None:
        return ring_grid(ctx, channel, kind=kind)
    lo, hi = channel_domain(ctx, channel)
    return uniform_grid(lo, hi, n_cells, kind=kind)


def shannon_ring_discrete(ctx: ScatterContext, channel: SpinChannel,
                          n_cells: int | None = None) -> float:
    """Discrete detection entropy over ring cells (streamed, exact sums)."""
    grid = _resolve_grid(ctx, channel, n_cells)
    return detection_entropy_bits(grid, ctx.K, channel)


def shannon_sphere_discrete(ctx: ScatterContext,
                            channel: SpinChannel = SpinChannel.SPINLESS,
                            n_cells: int | None = None) -> float:
    """Per-pixel entropy on the accessible sphere via ring multiplicities.

    A polar ring of width dtheta at angle theta splits into
    m(theta) = 2 pi sin(theta)/dtheta equal pixels, so
    S = -sum_rings P_ring log2(P_ring / m) without ever enumerating
    pixels.  Exact for the discretized sphere at any energy.
    """
    grid = _resolve_grid(ctx, channel, n_cells, kind=GridKind.SPHERE_PIXELS)
    return _stream_weight_entropy(grid, ctx.K, channel)[0]


# ---------------------------------------------------------------------------
# continuous-limit (integral + log N) forms
# ---------------------------------------------------------------------------

def _branch_densities(ctx: ScatterContext, channel: SpinChannel):
    """Unnormalized 1-D angular densities rho(theta) = 2 pi p(theta) sin(theta),
    one per detection branch (two for ANTIPARALLEL)."""
    K = ctx.K

    def rho_direct(theta):
        return 2.0 * math.pi * differential_probability(
            theta, K, SpinChannel.SPINLESS) * math.sin(theta)

    def rho_exchange(theta):
        f = differential_probability(math.pi - theta, K, SpinChannel.SPINLESS)
        return 2.0 * math.pi * f * math.sin(theta)

    def rho_parallel(theta):
        return 2.0 * math.pi * differential_probability(
            theta, K, SpinChannel.PARALLEL) * math.sin(theta)

    if channel in (SpinChannel.SPINLESS, SpinChannel.DISTINGUISHABLE):
        return (rho_direct,)
    if channel is SpinChannel.PARALLEL:
        return (rho_parallel,)
    if channel is SpinChannel.ANTIPARALLEL:
        return (rho_direct, rho_exchange)
    raise ValueError(f"unknown spin channel: {channel!r}")


def _quad_breakpoints(lo: float, hi: float) -> list[float]:
    """Breakpoints concentrating subdivision near the forward peak."""
    pts = []
    for factor in (2.0, 5.0, 10.0, 50.0, 200.0, 1000.0):
        x = lo * factor
        if lo < x < hi:
            pts.append(x)
    return pts


def _quad(fn, lo: float, hi: float, pts: list[float]) -> float:
    val, _err = quad(fn, lo, hi, points=pts or None, limit=500,
                     epsabs=1e-12, epsrel=1e-9)
    if not math.isfinite(val):
        raise NumericalError(f"non-finite integral on [{lo}, {hi}]")
    return val


def _jaynes_integral(ctx: ScatterContext, channel: SpinChannel,
                     log_arg) -> float:
    """-sum over branches of int P log2(log_arg(theta, P)) dtheta over the
    channel domain, with P the normalized 1-D detection density."""
    lo, hi = channel_domain(ctx, channel)
    pts = _quad_breakpoints(lo, hi)
    branches = _branch_densities(ctx, channel)

    z = sum(_quad(rho, lo, hi, pts) for rho in branches)
    if z <= 0.0:
        raise NumericalError("detection density integrated to zero")

    total = 0.0
    for rho in branches:
        def integrand(theta, _rho=rho):
            p = _rho(theta) / z
            if p <= 0.0:
                return 0.0
            return p * math.log2(log_arg(theta, p))
        total += _quad(integrand, lo, hi, pts)
    return -total


def shannon_ring_jaynes(ctx: ScatterContext, channel: SpinChannel,
                        n_cells: int | None = None) -> float:
    """Continuous-limit ring entropy: S = -int P log2(Lambda P) + log2 N.

    P(theta) is the normalized 1-D detection density over the channel
    domain and Lambda the domain length; N defaults to the native ring
    count.  Valid when the cell width is well below the cutoff angle.
    """
    lo, hi = channel_domain(ctx, channel)
    n = _resolve_grid(ctx, channel, n_cells).n_cells
    lam = hi - lo
    return _jaynes_integral(ctx, channel, lambda theta, p: lam * p) \
        + math.log2(n)


def shannon_sphere_jaynes(ctx: ScatterContext,
                          channel: SpinChannel = SpinChannel.SPINLESS) -> float:
    """Continuous-limit sphere entropy:
    S = -2 pi * int pbar(theta) log2(Omega_0 p(theta)) dtheta + log2 M,

    with p the solid-angle detection density normalized over the
    accessible domain, pbar = p sin(theta), Omega_0 the accessible solid
    angle and M the pixel count.  Valid when the pixel side is well below
    the cutoff angle.
    """
    lo, hi = channel_domain(ctx, channel)
    omega0 = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
    m_pixels = int(math.floor(omega0 / ctx.delta_theta ** 2 + 1e-9))

    def log_arg(theta, pbar):
        # Omega_0 times the solid-angle density p = pbar / (2 pi sin theta)
        return omega0 * (pbar / (2.0 * math.pi * math.sin(theta)))

    return _jaynes_integral(ctx, channel, log_arg) + math.log2(m_pixels)


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------

def sweep_energies(e_list_ev, l_nm: float,
                   channel: SpinChannel = SpinChannel.SPINLESS,
                   geometry: GridKind = GridKind.RINGS,
                   k_scale: float = 1.0) -> list[dict]:
    """One discrete entropy per energy; per-row failures are reported in
    the row's ``status`` field and the sweep continues.

    Over the usual energy range the entropies decrease monotonically with
    E (the forward peak sharpens); that is a property of the physics, not
    an enforced constraint, so no error is raised if a row breaks it.
    """
    from .kinematics import make_context  # local import keeps module load light

    rows: list[dict] = []
    for e_ev in e_list_ev:
        row: dict = {"E_ev": float(e_ev)}
        try:
            ctx = make_context(float(e_ev), l_nm, k_scale)
            if geometry is GridKind.SPHERE_PIXELS:
                grid = ring_grid(ctx, channel, kind=GridKind.SPHERE_PIXELS)
                row["n_rings"] = grid.n_cells
                row["pixel_count"] = sphere_pixel_count(ctx)
                row["S_bits"] = shannon_sphere_discrete(ctx, channel)
            else:
                grid = ring_grid(ctx, channel)
                row["n_cells"] = grid.n_cells
                row["S_bits"] = shannon_ring_discrete(ctx, channel)
            row["status"] = "ok"
        except (ValueError, NumericalError, FloatingPointError) as exc:
            row["S_bits"] = math.nan
            row["status"] = f"error: {exc}"
        rows.append(row)
    return rows
