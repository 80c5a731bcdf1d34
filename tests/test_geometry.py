import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from escatter import (
    AngularGrid,
    ScatterContext,
    SpinChannel,
    make_context,
    range_grid_below,
    ring_grid,
    ring_weight,
    sphere_pixel_count,
)
from escatter.geometry import (
    channel_cell_integrals,
    direct_exchange_cell_integrals,
    panel_edges,
    parallel_cell_integrals,
)

from oracles import (
    CALIBRATED_KSCALE,
    below_equator,
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
    physical_scale,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_angular_grid_is_an_immutable_checked_value():
    fields = dict(theta_lo=0.1, theta_hi=1.0, n_cells=3, delta_theta=0.3)
    g = AngularGrid(**fields)
    assert AngularGrid._fields == tuple(fields)
    assert {name: getattr(g, name) for name in fields} == fields
    assert g == AngularGrid(**fields) and hash(g) == hash(AngularGrid(**fields))
    with pytest.raises(AttributeError):
        g.n_cells = 4
    assert g._replace(n_cells=2).n_cells == 2
    for bad, match in (({"n_cells": 0}, "at least one cell"),
                       ({"theta_hi": 0.1}, "domain is empty"),
                       ({"theta_hi": math.nan}, "domain is empty")):
        with pytest.raises(ValueError, match=match):
            AngularGrid(**{**fields, **bad})
        with pytest.raises(ValueError, match=match):
            g._replace(**bad)


def test_exact_division_cell_count():
    # floor() on a domain that is an exact multiple of the width must not
    # lose a cell to floating-point rounding
    ctx = make_context(5.0, 100.0)
    lo, hi = ctx.epsilon, math.pi - ctx.epsilon
    n = math.floor((hi - lo) / ctx.delta_theta)
    grid = ring_grid(ctx, SpinChannel.SPINLESS)
    assert grid.n_cells in (n, n + 1)
    assert grid.theta_lo == lo
    assert grid.n_cells * grid.delta_theta <= (hi - lo) * (1 + 1e-12)


def test_ring_grid_domains():
    # the full shell for SPINLESS, the half shell up to the equator for
    # the spin channels, on the native grid and on n equal cells alike
    ctx = make_context(5.0, 100.0)
    for ch, hi in ((SpinChannel.SPINLESS, math.pi - ctx.epsilon),
                   (SpinChannel.PARALLEL, 0.5 * math.pi),
                   (SpinChannel.ANTIPARALLEL, 0.5 * math.pi)):
        for n in (None, 1, 1024):
            g = ring_grid(ctx, ch, n_cells=n)
            assert (g.theta_lo, g.theta_hi) == (ctx.epsilon, hi)


def test_ring_grid_with_n_cells_is_the_uniform_grid_over_the_domain():
    # the one resolver: entropy's sums, the continuous limit (2^50 cells)
    # and the meridian matrix ask ring_grid for n equal cells
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for ch in SpinChannel:
        lo = ctx.epsilon
        hi = math.pi - lo if ch is SpinChannel.SPINLESS else 0.5 * math.pi
        for n in (1, 1024, 2 ** 50):
            assert ring_grid(ctx, ch, n_cells=n) == \
                AngularGrid(lo, hi, n, (hi - lo) / n)
    with pytest.raises(ValueError, match="at least one cell"):
        ring_grid(ctx, SpinChannel.SPINLESS, n_cells=0)


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
        for n in (None, 4):
            with pytest.raises(ValueError, match=r"epsilon = 3\.14.*pi/2 = 1\.5708"
                               r".*: no scattering angle is accessible"):
                ring_grid(ctx, ch, n_cells=n)
        with pytest.raises(ValueError, match="not below pi/2"):
            sphere_pixel_count(ctx, ch)


def test_range_grid_below_abuts_top():
    ctx = ScatterContext(K=1.0, sigma_k=1.0, epsilon=0.01, delta_theta=0.1)
    g = range_grid_below(ctx, 0.25)
    assert g == AngularGrid(0.5 * math.pi - 2 * 0.1, 0.5 * math.pi, 2, 0.1)
    # 0.3 / 0.1 is 2.999... in binary; the count must still be 3
    assert range_grid_below(ctx, 0.3).n_cells == 3
    with pytest.raises(ValueError, match="holds no complete cell"):
        range_grid_below(ctx, 0.05)


def test_range_grid_below_checks_the_band_in_the_half_shell():
    # the band must lie in the parallel channel's half shell [eps, pi/2];
    # a context with no accessible angle is refused first, for that reason
    ctx = make_context(1000.0, 50.0, CALIBRATED_KSCALE)
    span = 0.5 * math.pi - ctx.epsilon
    assert range_grid_below(ctx, span).n_cells == \
        ring_grid(ctx, SpinChannel.PARALLEL).n_cells
    for theta_r in (0.0, -0.1, math.nextafter(span, math.inf), math.nan):
        with pytest.raises(ValueError, match=r"acceptance half-angle .* outside "
                           r"\(0, pi/2 - cutoff\]"):
            range_grid_below(ctx, theta_r)
    with pytest.raises(ValueError, match="not below pi/2"):
        range_grid_below(make_context(0.001, 0.06), 0.0)


def test_grid_edges_and_chunks():
    g = AngularGrid(0.0, 1.0, 1000, 1.0 / 1000)
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


def test_bands_are_measured_from_the_equator():
    # a band hangs from pi/2, so its top cell's centre lies exactly half a
    # cell below it, whatever its float lower edge; a native half-shell
    # grid's top cell ends less than a cell below pi/2
    for e_ev, l_nm in ((0.05, 100.0), (5.0, 100.0), (1e3, 5e4), (1e12, 1000.0)):
        ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
        for theta_r in (0.001, 0.01, 0.3, 1.0):
            if theta_r < ctx.delta_theta or theta_r > 0.5 * math.pi - ctx.epsilon:
                continue
            grid = range_grid_below(ctx, theta_r)
            n = grid.n_cells
            assert grid.below_equator((n - 1, n - 0.5)) == [0.5 * ctx.delta_theta, 0.0]
        grid = ring_grid(ctx, SpinChannel.PARALLEL)
        gap, = grid.below_equator((grid.n_cells - 0.5,))
        assert 0.0 <= gap < ctx.delta_theta


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
        grid = ring_grid(ctx, ch)
        centers = grid.centres(np.arange(grid.n_cells))
        total = sum(ring_weight(t, grid.delta_theta) for t in centers)
        assert total == pytest.approx(sphere_pixel_count(ctx, ch),
                                      rel=1e-3), ch


# ---------------------------------------------------------------------------
# quadrature panel layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,first_a,first_b", [
    (0.0, 1.0, 0.01, 0.01), (0.0, 1.0, 0.001, 0.1), (0.0, 1.0, 0.3, 1e-6),
    (-3.0, 5e4, 2.0, 7.5), (63.5, 2.0 ** 50 - 64.5, 64.0, 64.0),
    (1.0, 1.5, 10.0, 10.0)])
def test_panel_edges_double_from_both_ends(a, b, first_a, first_b):
    # a first width is max(floor, d/4): with floor 0, d = 4 w gives w
    edges = panel_edges(a, b, 0.0, 4.0 * first_a, 4.0 * first_b)
    assert edges[0] == a and edges[-1] == b
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    mid = edges.index(a + 0.5 * (b - a))  # the two series meet here
    lower = [hi - lo for lo, hi in zip(edges[:mid], edges[1:mid + 1])]
    upper = [hi - lo for lo, hi in zip(edges[mid:], edges[mid + 1:])][::-1]
    for first, widths in ((first_a, lower), (first_b, upper)):
        # each full panel doubles the one before it; the one at the
        # midpoint is cut, so it is at most twice as wide
        expected = [first * 2.0 ** k for k in range(len(widths))]
        assert widths[:-1] == pytest.approx(expected[:-1], rel=1e-12)
        assert 0.0 < widths[-1] <= expected[-1] * (1.0 + 1e-12)
    # one panel a side when a first width reaches past the midpoint
    if first_a >= 0.5 * (b - a) and first_b >= 0.5 * (b - a):
        assert edges == [a, a + 0.5 * (b - a), b]


@pytest.mark.parametrize("a,b", [
    (63.5, 8192.0 - 64.5), (63.5, 63.5 + 128.0), (63.5, 63.5 + 127.75),
    (63.5, 63.5 + 2.0 * 64.0 * 1023.0), (63.5, 10.0 ** 12 - 64.5),
    (63.5, 2.0 ** 50 - 64.5), (0.25, 3.0e6 + 0.75), (0.3, 12345.678)])
def test_panel_edges_equal_the_euler_maclaurin_layout(a, b):
    # the Euler-Maclaurin middle's panels as its own code laid them out:
    # 64 cells wide at both ends, width ratio 2, offsets 64 (2^k - 1)
    half = 0.5 * (b - a)
    steps = math.ceil(math.log1p(half / 64) / math.log(2.0))
    offsets = [o for o in (64 * (2.0 ** k - 1.0) for k in range(steps + 1))
               if o < half]
    offsets.append(half)
    edges = [a + o for o in offsets] + [b - o for o in offsets[-2::-1]]
    assert panel_edges(a, b, 64, 0.0, 0.0) == edges


# ---------------------------------------------------------------------------
# cell probabilities: quadrature route vs closed-form route
# ---------------------------------------------------------------------------

def _branch_sum(branches) -> np.ndarray:
    """A cell's weight summed over a channel's branches."""
    return np.sum(branches, axis=0)


def _dual_route_check(ctx, channel, grid, indices, rel=1e-9):
    fast = _branch_sum(channel_cell_integrals(*grid_cells(grid),
                                              physical_scale(ctx.K), channel))
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
    grid = range_grid_below(ctx, 0.3)
    _dual_route_check(ctx, SpinChannel.PARALLEL, grid,
                      [0, 1, grid.n_cells // 2, grid.n_cells - 1])


def test_first_cell_dominates_spinless():
    ctx = make_context(1.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.SPINLESS)
    p0 = cell_probability(grid, 0, ctx, SpinChannel.SPINLESS)
    p1 = cell_probability(grid, 1, ctx, SpinChannel.SPINLESS)
    assert p0 > p1
    # ratio agrees with the closed-form antiderivative route
    fast, = channel_cell_integrals(*grid_cells(grid, 0, 2), physical_scale(ctx.K),
                                   SpinChannel.SPINLESS)
    assert p0 / p1 == pytest.approx(float(fast[0] / fast[1]), rel=1e-8)


def test_parallel_cell_straddling_equator_suppressed():
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    w = 1e-3
    lo, hi = math.pi / 2 - w / 2, math.pi / 2 + w / 2
    grid = AngularGrid(lo, hi, 1, hi - lo)
    p_par = cell_probability(grid, 0, ctx, SpinChannel.PARALLEL)
    p_sp = cell_probability(grid, 0, ctx, SpinChannel.SPINLESS)
    assert p_par < 1e-5 * p_sp


def test_uniform_density_normalizes():
    # integrating the constant density 1/(4 pi cos eps) over the full shell
    # must give exactly 1
    ctx = make_context(5.0, 100.0)
    grid = ring_grid(ctx, SpinChannel.SPINLESS, n_cells=257)
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
        w = _branch_sum(channel_cell_integrals(*grid_cells(grid),
                                               physical_scale(ctx.K), channel))
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
    c = physical_scale(make_context(5.0, 100.0, CALIBRATED_KSCALE).K)
    edges = np.linspace(0.3, math.pi / 2, 200)
    mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    # one cell a call: the cells' rounded widths differ
    F, G = np.array([[direct_exchange_cell_integrals([m], h, c)[i][0]
                      for m, h in zip(mid, hw)] for i in (0, 1)])
    X = interference_cell_integrals(edges, c)
    W = np.array([parallel_cell_integrals([m], below_equator([m]), h, c)[0]
                  for m, h in zip(mid, hw)])
    assert np.all(np.abs(W - (F + G - 2.0 * X)) <= 1e-12 * (F + G))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=math.pi - 0.02),
       st.floats(min_value=1e-5, max_value=0.02))
def test_cell_integrals_positive(lo, width):
    mid, hw = np.array([lo + 0.5 * width]), 0.5 * width
    # only cells inside the integrals' domain, judged on their own top edge
    # mid + hw: one within about 1e-8 of its width of pi has the documented
    # parallel weight -inf, and lo + width can miss such a cell by an ulp
    if math.pi - (mid[0] + hw) < 1e-6 * width:
        return
    F, G = direct_exchange_cell_integrals(mid, hw, physical_scale(1.0))
    W = parallel_cell_integrals(mid, below_equator(mid), hw, physical_scale(1.0))
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
    W = [parallel_cell_integrals([m], below_equator([m]), h, physical_scale(K))[0]
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
    c = physical_scale(ctx.K)
    hw = 0.5 * ctx.delta_theta
    mid = theta + ctx.delta_theta * (np.arange(-4, 4) + 0.5)
    W = parallel_cell_integrals(mid, below_equator(mid), hw, c)
    F, G = direct_exchange_cell_integrals(mid, hw, c)
    for i, m in enumerate(mid):
        assert W[i] == pytest.approx(parallel_cell_integral_mp(m, hw, c),
                                     rel=1e-12, abs=0.0), (theta, i)
        f_mp, g_mp = direct_exchange_cell_integrals_mp(m, hw, c)
        assert F[i] == pytest.approx(f_mp, rel=1e-12, abs=0.0), (theta, i)
        assert G[i] == pytest.approx(g_mp, rel=1e-12, abs=0.0), (theta, i)


def test_parallel_cell_integral_across_series_cut():
    # atanh(y) - y switches from its series to arctanh at |y| = 0.25;
    # these cells at theta = 1 have |y| from about 0.19 to 0.31
    hws = np.linspace(0.08, 0.13, 11)
    c = physical_scale(1.0)
    W = [parallel_cell_integrals([1.0], below_equator([1.0]), hw, c)[0]
         for hw in hws]
    for hw, w in zip(hws, W):
        assert w == pytest.approx(parallel_cell_integral_mp(1.0, hw, c),
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
    c = physical_scale(ctx.K)
    hw = 0.5 * ctx.delta_theta
    for channel in SpinChannel:
        grid = ring_grid(ctx, channel)
        n = grid.n_cells
        xs = [*range(20), *np.linspace(20, n - 20, 500), *range(n - 20, n)]
        mid, below = grid.centres(xs), grid.below_equator(xs)
        ours = _branch_sum(channel_cell_integrals(mid, below, hw, c, channel))
        assert np.allclose(ours, channel_cell_integrals_np(mid, below, hw, c,
                                                           channel),
                           rtol=1e-14, atol=0.0), channel
    F, G = direct_exchange_cell_integrals(mid, hw, c)
    F_np, G_np = direct_exchange_cell_integrals_np(mid, hw, c)
    assert np.allclose(F, F_np, rtol=1e-14, atol=0.0)
    assert np.allclose(G, G_np, rtol=1e-14, atol=0.0)
    hws = np.linspace(0.08, 0.13, 11)  # |y| across the series cut at 1 rad
    c = physical_scale(1.0)
    x = below_equator(1.0)
    assert np.allclose([parallel_cell_integrals([1.0], [x], h, c)[0] for h in hws],
                       parallel_cell_integrals_np(1.0, x, hws, c),
                       rtol=1e-14, atol=0.0)


def test_channel_branches():
    # the one place that decides a channel's branches: |f|^2 for
    # spinless, |f - g|^2 for parallel, |f|^2 and |g|^2 (the two spin
    # patterns) for antiparallel
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    c = physical_scale(ctx.K)
    mid, below, hw = grid_cells(ring_grid(ctx, SpinChannel.PARALLEL), 0, 50)
    F, G = direct_exchange_cell_integrals(mid, hw, c)
    expected = {SpinChannel.SPINLESS: (F,),
                SpinChannel.PARALLEL: (parallel_cell_integrals(mid, below, hw, c),),
                SpinChannel.ANTIPARALLEL: (F, G)}
    for channel, branches in expected.items():
        assert channel_cell_integrals(mid, below, hw, c, channel) == branches
    assert {channel: len(channel_cell_integrals(mid, below, hw, c, channel))
            for channel in SpinChannel} == {SpinChannel.SPINLESS: 1,
                                            SpinChannel.PARALLEL: 1,
                                            SpinChannel.ANTIPARALLEL: 2}
    with pytest.raises(ValueError, match="unknown spin channel"):
        channel_cell_integrals(mid, below, hw, c, "spinless")


def test_parallel_weight_where_y_rounds_to_minus_one():
    # 1e18 eV / 1 um: the first cell's lower edge is 5e-9 of a cell above
    # 0, so y = -2 sin(mid) sin(hw) / (sin^2 hw + sin^2 mid) rounds to -1;
    # its weight is -inf (numpy's arctanh(-1)), without a math domain error
    ctx = make_context(1e18, 1000.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.PARALLEL)
    mid, below, hw = grid_cells(grid, 0, 2)
    w = parallel_cell_integrals(mid, below, hw, physical_scale(ctx.K))
    assert w[0] == -math.inf
    assert parallel_cell_integrals_np(mid, below, hw,
                                      physical_scale(ctx.K))[0] == -math.inf
