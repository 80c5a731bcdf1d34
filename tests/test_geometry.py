import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from escatter import (
    GridKind,
    SpinChannel,
    channel_domain,
    make_context,
    range_grid_below,
    ring_grid,
    ring_weight,
    sphere_pixel_count,
    uniform_grid,
)
from escatter.geometry import (
    channel_cell_integrals,
    direct_exchange_cell_integrals,
    parallel_cell_integrals,
)

from oracles import (
    CALIBRATED_KSCALE,
    cell_probability,
    channel_cell_integrals_np,
    direct_exchange_cell_integrals_mp,
    direct_exchange_cell_integrals_np,
    grid_cells,
    grid_edges,
    integrate_cell_gl,
    interference_cell_integrals,
    iter_cell_chunks,
    parallel_cell_integral_mp,
    parallel_cell_integrals_np,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_exact_division_cell_count():
    g = uniform_grid(0.0, 1.0, 4)
    assert g.n_cells == 4
    # floor() on a domain that is an exact multiple of the width must not
    # lose a cell to floating-point rounding
    ctx = make_context(5.0, 100.0)
    lo, hi = channel_domain(ctx, SpinChannel.SPINLESS)
    n = math.floor((hi - lo) / ctx.delta_theta)
    grid = ring_grid(ctx, SpinChannel.SPINLESS)
    assert grid.n_cells in (n, n + 1)
    assert grid.theta_lo == lo
    assert grid.n_cells * grid.delta_theta <= (hi - lo) * (1 + 1e-12)


def test_ring_grid_domains():
    ctx = make_context(5.0, 100.0)
    g = ring_grid(ctx, SpinChannel.SPINLESS)
    assert g.theta_lo == ctx.epsilon
    assert g.theta_hi == pytest.approx(math.pi - ctx.epsilon)
    for ch in (SpinChannel.PARALLEL, SpinChannel.ANTIPARALLEL):
        g = ring_grid(ctx, ch)
        assert g.theta_hi == pytest.approx(math.pi / 2)


def test_fewer_than_one_detector():
    # 2 E b_bar just above 1: the domain [eps, pi - eps] is narrow but not
    # empty, and the packet is small enough that delta_theta exceeds it
    ctx = make_context(0.27, 4.1)
    assert ctx.epsilon < 0.5 * math.pi
    assert ctx.delta_theta > math.pi - 2.0 * ctx.epsilon
    with pytest.raises(ValueError, match="fewer than one"):
        ring_grid(ctx, SpinChannel.SPINLESS)


def test_empty_domain_names_cutoff():
    # 2 E b_bar < 1 puts the cutoff angle above pi/2: every domain is empty
    ctx = make_context(0.001, 0.06)
    assert ctx.epsilon > 0.5 * math.pi
    for ch in SpinChannel:
        with pytest.raises(ValueError, match=r"epsilon = 3\.14.*pi/2 = 1\.5708"):
            channel_domain(ctx, ch)
        with pytest.raises(ValueError, match="not below pi/2"):
            ring_grid(ctx, ch)


def test_range_grid_below_abuts_top():
    g = range_grid_below(math.pi / 2, 0.25, 0.1)
    assert g.n_cells == 2
    assert g.theta_hi == pytest.approx(math.pi / 2)
    assert g.theta_lo == pytest.approx(math.pi / 2 - 0.2)
    # 0.3 / 0.1 is 2.999... in binary; the count must still be 3
    assert range_grid_below(1.0, 0.3, 0.1).n_cells == 3
    with pytest.raises(ValueError):
        range_grid_below(math.pi / 2, 0.05, 0.1)


def test_grid_edges_and_chunks():
    g = uniform_grid(0.0, 1.0, 1000)
    edges = grid_edges(g)
    assert len(edges) == 1001
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(1.0)
    # cell centres sit halfway between the edges, at fractional indices too
    centres = g.centres(np.arange(1000))
    assert np.allclose(centres, 0.5 * (edges[:-1] + edges[1:]), rtol=0, atol=1e-15)
    assert g.centres([-0.5, 999.5]) == [0.0, pytest.approx(1.0)]
    # chunks of cell indices tile the full grid without gaps or overlaps
    seen = np.concatenate(list(iter_cell_chunks(g, chunk_cells=137)))
    assert np.array_equal(seen, np.arange(1000))


def test_sphere_pixel_count_examples():
    class _Fake:
        pass

    fake = _Fake()
    fake.epsilon = 0.0
    fake.delta_theta = math.sqrt(4.0 * math.pi)
    assert sphere_pixel_count(fake, SpinChannel.SPINLESS) == 1

    fake.epsilon = math.pi / 3
    fake.delta_theta = 0.1
    assert sphere_pixel_count(fake, SpinChannel.SPINLESS) == 628

    # 100 eV with the packet size chosen so the pixel side is 0.039 mrad
    target = 0.039e-3
    k = CALIBRATED_KSCALE * math.sqrt(100.0 / 27.211386245988)
    l_bohr = 2.0 / (k * target)
    ctx = make_context(100.0, l_bohr * 0.052917721, CALIBRATED_KSCALE)
    assert ctx.delta_theta == pytest.approx(target, rel=1e-9)
    assert sphere_pixel_count(ctx, SpinChannel.SPINLESS) == \
        pytest.approx(8.3e9, rel=0.01)


def test_ring_weight_examples():
    assert ring_weight(math.pi / 2, math.pi / 100) == pytest.approx(200.0,
                                                                    rel=1e-12)
    assert ring_weight(math.pi / 6, 0.01) == pytest.approx(100.0 * math.pi,
                                                           rel=1e-12)
    assert ring_weight(1e-9, 0.01) < 1e-6


def test_rings_times_weight_matches_sphere_pixels():
    # the pixel count covers the channel's own domain: the half shell for
    # the indistinguishable spin channels
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for ch in SpinChannel:
        grid = ring_grid(ctx, ch, kind=GridKind.SPHERE_PIXELS)
        centers = grid.centres(np.arange(grid.n_cells))
        total = sum(ring_weight(t, grid.delta_theta) for t in centers)
        assert total == pytest.approx(sphere_pixel_count(ctx, ch),
                                      rel=1e-3), ch


# ---------------------------------------------------------------------------
# cell probabilities: quadrature route vs closed-form route
# ---------------------------------------------------------------------------

def _dual_route_check(ctx, channel, grid, indices, rel=1e-9):
    fast = channel_cell_integrals(*grid_cells(grid), ctx.K, channel)
    for i in indices:
        gl = cell_probability(grid, i, ctx, channel)
        assert gl == pytest.approx(fast[i], rel=rel), (
            f"cell {i} of {channel}: quadrature {gl!r} vs closed form {fast[i]!r}")


def test_dual_route_all_channels():
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for channel in SpinChannel:
        grid = ring_grid(ctx, channel)
        n = grid.n_cells
        _dual_route_check(ctx, channel, grid, [0, 1, 2, n // 2, n - 2, n - 1])


def test_dual_route_near_equator_parallel():
    # the closed form is cancellation-free at the equator; the quadrature
    # route must agree on the cells next to it
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    grid = range_grid_below(math.pi / 2, 0.3, ctx.delta_theta)
    _dual_route_check(ctx, SpinChannel.PARALLEL, grid,
                      [0, 1, grid.n_cells // 2, grid.n_cells - 1])


def test_first_cell_dominates_spinless():
    ctx = make_context(1.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.SPINLESS)
    p0 = cell_probability(grid, 0, ctx, SpinChannel.SPINLESS)
    p1 = cell_probability(grid, 1, ctx, SpinChannel.SPINLESS)
    assert p0 > p1
    # ratio agrees with the closed-form antiderivative route
    fast = channel_cell_integrals(*grid_cells(grid, 0, 2), ctx.K,
                                  SpinChannel.SPINLESS)
    assert p0 / p1 == pytest.approx(float(fast[0] / fast[1]), rel=1e-8)


def test_parallel_cell_straddling_equator_suppressed():
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    w = 1e-3
    grid = uniform_grid(math.pi / 2 - w / 2, math.pi / 2 + w / 2, 1)
    p_par = cell_probability(grid, 0, ctx, SpinChannel.PARALLEL)
    p_sp = cell_probability(grid, 0, ctx, SpinChannel.SPINLESS)
    assert p_par < 1e-5 * p_sp


def test_uniform_density_normalizes():
    # integrating the constant density 1/(4 pi cos eps) over the full shell
    # must give exactly 1
    ctx = make_context(5.0, 100.0)
    lo, hi = channel_domain(ctx, SpinChannel.SPINLESS)
    grid = uniform_grid(lo, hi, 257)
    const = 1.0 / (4.0 * math.pi * math.cos(ctx.epsilon))

    total = 0.0
    for i in range(grid.n_cells):
        a, b = grid_edges(grid, i, i + 1)
        total += integrate_cell_gl(
            lambda th: 2.0 * math.pi * const * np.sin(th), a, b)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_normalized_probabilities_sum_to_one():
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for channel in SpinChannel:
        grid = ring_grid(ctx, channel)
        w = np.asarray(channel_cell_integrals(*grid_cells(grid), ctx.K, channel))
        p = w / w.sum()
        assert abs(float(p.sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# closed-form internals
# ---------------------------------------------------------------------------

def test_interference_consistency():
    # (f-g)^2 = f^2 + g^2 - 2 f g must hold cell-by-cell between the three
    # independent antiderivatives.  Near the equator the right-hand side
    # cancels severely (it is the very reason the dedicated parallel
    # antiderivative exists), so agreement is asserted in absolute terms
    # against the unsubtracted magnitudes.
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    edges = np.linspace(0.3, math.pi / 2, 200)
    mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    # one cell a call: the cells' rounded widths differ
    F, G = np.array([[direct_exchange_cell_integrals([m], h, ctx.K)[i][0]
                      for m, h in zip(mid, hw)] for i in (0, 1)])
    X = interference_cell_integrals(edges, ctx.K)
    W = np.array([parallel_cell_integrals([m], h, ctx.K)[0]
                  for m, h in zip(mid, hw)])
    assert np.all(np.abs(W - (F + G - 2.0 * X)) <= 1e-12 * (F + G))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=math.pi - 0.02),
       st.floats(min_value=1e-5, max_value=0.02))
def test_cell_integrals_positive(lo, width):
    if lo + width >= math.pi:
        return
    mid, hw = np.array([lo + 0.5 * width]), 0.5 * width
    F, G = direct_exchange_cell_integrals(mid, hw, 1.0)
    W = parallel_cell_integrals(mid, hw, 1.0)
    assert F[0] > 0.0
    assert G[0] > 0.0
    # non-negative up to rounding relative to the channel magnitudes
    assert W[0] >= -1e-12 * float(F[0] + G[0])


def test_series_closed_form_crossover():
    # the parallel antiderivative used to switch to a series at
    # |cos theta| = 0.1; cells around that angle still match quadrature
    K = 1.0
    u_cut = 0.1
    theta_cut = math.acos(u_cut)
    edges = np.linspace(theta_cut - 0.05, theta_cut + 0.05, 101)
    # one cell a call: the cells' rounded widths differ
    W = [parallel_cell_integrals([m], h, K)[0]
         for m, h in zip(0.5 * (edges[1:] + edges[:-1]),
                         0.5 * (edges[1:] - edges[:-1]))]
    # compare against high-order quadrature per cell
    for i in (0, 49, 50, 51, 99):
        lo, hi = float(edges[i]), float(edges[i + 1])

        def density(th):
            s = np.sin(th / 2.0) ** 2
            c = np.cos(th / 2.0) ** 2
            f = 1.0 / (4.0 * K * K * s)
            g = 1.0 / (4.0 * K * K * c)
            return 2.0 * math.pi * (f - g) ** 2 * np.sin(th)

        ref = integrate_cell_gl(density, lo, hi)
        assert W[i] == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# cancellation-free closed forms against mpmath, on identical cell bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.3, 1.0, 1.4, 0.5 * math.pi, 3.0])
def test_cell_integrals_match_mpmath_at_native_width(theta):
    # 1 keV / 50 um cells (2.47e-7 rad): A(b) - A(a) formed as a
    # difference was off by up to 1.1e-8 of such a cell at theta = 1.4
    ctx = make_context(1000.0, 50_000.0, CALIBRATED_KSCALE)
    hw = 0.5 * ctx.delta_theta
    mid = theta + ctx.delta_theta * (np.arange(-4, 4) + 0.5)
    W = parallel_cell_integrals(mid, hw, ctx.K)
    F, G = direct_exchange_cell_integrals(mid, hw, ctx.K)
    for i, m in enumerate(mid):
        assert W[i] == pytest.approx(parallel_cell_integral_mp(m, hw, ctx.K),
                                     rel=1e-12, abs=0.0), (theta, i)
        f_mp, g_mp = direct_exchange_cell_integrals_mp(m, hw, ctx.K)
        assert F[i] == pytest.approx(f_mp, rel=1e-12, abs=0.0), (theta, i)
        assert G[i] == pytest.approx(g_mp, rel=1e-12, abs=0.0), (theta, i)


def test_parallel_cell_integral_across_series_cut():
    # atanh(y) - y switches from its series to arctanh at |y| = 0.25;
    # these cells at theta = 1 have |y| from about 0.19 to 0.31
    hws = np.linspace(0.08, 0.13, 11)
    W = [parallel_cell_integrals([1.0], hw, 1.0)[0] for hw in hws]
    for hw, w in zip(hws, W):
        assert w == pytest.approx(parallel_cell_integral_mp(1.0, hw, 1.0),
                                  rel=1e-13, abs=0.0), hw


# ---------------------------------------------------------------------------
# the package's loops against the numpy-vectorised forms they replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e_ev, l_nm", [(1.0, 50.0), (5.0, 100.0), (1e3, 5e4),
                                        (1e8, 1000.0), (1e12, 1000.0)])
def test_cell_integrals_match_numpy_forms(e_ev, l_nm):
    # first and last cells, where the singularity and the parallel
    # channel's double zero sit, and cells across the domain, in the
    # series branch of atanh(y) - y and out of it
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    hw = 0.5 * ctx.delta_theta
    for channel in SpinChannel:
        grid = ring_grid(ctx, channel)
        n = grid.n_cells
        mid = grid.centres([*range(20), *np.linspace(20, n - 20, 500),
                            *range(n - 20, n)])
        ours = channel_cell_integrals(mid, hw, ctx.K, channel)
        assert np.allclose(ours, channel_cell_integrals_np(mid, hw, ctx.K, channel),
                           rtol=1e-14, atol=0.0), channel
    F, G = direct_exchange_cell_integrals(mid, hw, ctx.K)
    F_np, G_np = direct_exchange_cell_integrals_np(mid, hw, ctx.K)
    assert np.allclose(F, F_np, rtol=1e-14, atol=0.0)
    assert np.allclose(G, G_np, rtol=1e-14, atol=0.0)
    hws = np.linspace(0.08, 0.13, 11)  # |y| across the series cut at 1 rad
    assert np.allclose([parallel_cell_integrals([1.0], h, 1.0)[0] for h in hws],
                       parallel_cell_integrals_np(1.0, hws, 1.0),
                       rtol=1e-14, atol=0.0)


def test_parallel_weight_where_y_rounds_to_minus_one():
    # 1e18 eV / 1 um: the first cell's lower edge is 5e-9 of a cell above
    # 0, so y = -2 sin(mid) sin(hw) / (sin^2 hw + sin^2 mid) rounds to -1;
    # its weight is -inf (numpy's arctanh(-1)), without a math domain error
    ctx = make_context(1e18, 1000.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.PARALLEL)
    mid, hw = grid_cells(grid, 0, 2)
    w = parallel_cell_integrals(mid, hw, ctx.K)
    assert w[0] == -math.inf
    assert parallel_cell_integrals_np(mid, hw, ctx.K)[0] == -math.inf
