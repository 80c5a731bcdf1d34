import json
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
    shannon_discrete,
    shannon_ring_discrete,
    shannon_ring_jaynes,
    shannon_sphere_discrete,
    shannon_sphere_jaynes,
    uniform_grid,
)
from escatter import entropy
from escatter.cli import main
from escatter.errors import NumericalError
from escatter.geometry import (
    channel_cell_integrals,
    direct_exchange_cell_integrals,
    panel_edges,
)

from oracles import (
    CALIBRATED_KSCALE,
    continuous_limit_oracle,
    gauss_legendre_mp,
    grid_cells,
    streamed_weight_entropy,
    telescoped_weight_mp,
)

K_FLAGS = ["--k-scale", repr(CALIBRATED_KSCALE), "--threads", "1"]


def _json_rows(capsys, argv: list[str], code: int = 0) -> list[dict]:
    """Run the CLI in process with JSON output; return its rows."""
    assert main(argv + ["--format", "json"]) == code
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# plain Shannon sums
# ---------------------------------------------------------------------------

def test_shannon_discrete_basics():
    assert shannon_discrete([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_discrete([1.0]) == 0.0
    assert shannon_discrete([0.0, 1.0, 0.0]) == 0.0
    assert shannon_discrete([0.125] * 8) == pytest.approx(3.0, abs=1e-14)
    assert shannon_discrete([0.25] * 4) == pytest.approx(2.0, abs=1e-14)
    assert shannon_discrete([1.0 / 16.0] * 16) == pytest.approx(4.0, abs=1e-12)
    assert shannon_discrete([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_discrete([0.25, 0.75]) == pytest.approx(
        2.0 - 0.75 * math.log2(3.0), abs=1e-15)


def test_shannon_discrete_rejects_bad_vectors():
    for short in ([0.5, 0.4], [0.3, 0.3]):
        with pytest.raises(ValueError, match="not normalized"):
            shannon_discrete(short)
    # any negative entry raises, however small: nothing is dropped silently
    for negative in ([1.5, -0.5], [1.0 + 1e-13, -1e-13]):
        with pytest.raises(ValueError, match="nonnegative"):
            shannon_discrete(negative)
    # NaN fails neither comparison above, so [nan, nan] used to give -0.0
    for bad in ([math.nan, math.nan], [1.0, math.inf], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            shannon_discrete(bad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2,
                max_size=40))
def test_shannon_permutation_invariant(weights):
    p = np.asarray(weights) / sum(weights)
    rng = np.random.default_rng(len(weights))
    h1 = shannon_discrete(p)
    h2 = shannon_discrete(rng.permutation(p))
    assert h1 == pytest.approx(h2, rel=1e-12, abs=1e-12)
    assert 0.0 <= h1 <= math.log2(len(p)) + 1e-12


# ---------------------------------------------------------------------------
# detection entropies on ring grids
# ---------------------------------------------------------------------------

def test_equator_closed_forms(capsys):
    # the equator geometry ignores the energy and the wave number
    argv = ["spinless-sweep", "--geometry", "equator", "--n-cells", "1024"]
    for channel, k_scale, bits in (("parallel", "1", 10.0),
                                   ("antiparallel", "1", 11.0),
                                   ("spinless", "7.3", 10.0)):
        rows = _json_rows(capsys, argv + ["--channel", channel,
                                          "--k-scale", k_scale])
        assert rows == [{"E_ev": 5.0, "n_cells": 1024, "S_bits": bits,
                         "status": "ok"}]


def test_streamed_matches_materialized():
    # the reducer must agree with materializing the full probability
    # vector and feeding it to the plain Shannon sum
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for ch in (SpinChannel.SPINLESS, SpinChannel.PARALLEL):
        w = np.asarray(channel_cell_integrals(*grid_cells(ring_grid(ctx, ch)),
                                              ctx.K, ch))
        assert shannon_ring_discrete(ctx, ch) == \
            pytest.approx(shannon_discrete(w / w.sum()), abs=1e-10)


def test_streamed_antiparallel_two_branches():
    # antiparallel outcomes are (cell, branch) pairs; materialize both
    # branch weight vectors explicitly and compare
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.ANTIPARALLEL)
    F, G = direct_exchange_cell_integrals(*grid_cells(grid), ctx.K)
    w = np.concatenate([F, G])
    h = shannon_discrete(w / w.sum())
    assert shannon_ring_discrete(ctx, SpinChannel.ANTIPARALLEL) == \
        pytest.approx(h, abs=1e-10)


def test_streaming_chunk_size_irrelevant():
    # the exact streamed oracle gives the same sums in one chunk or in
    # many, on ring cells and on sphere pixels (the per-ring multiplicity
    # term), and so does the reducer: it has no chunks
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    from escatter.entropy import _stream_weight_entropy

    for kind, channel in ((GridKind.RINGS, SpinChannel.SPINLESS),
                          (GridKind.SPHERE_PIXELS, SpinChannel.SPINLESS),
                          (GridKind.SPHERE_PIXELS, SpinChannel.ANTIPARALLEL)):
        grid = ring_grid(ctx, channel, kind=kind)
        h_one, z_one = streamed_weight_entropy(grid, ctx.K, channel)
        h_many, z_many = streamed_weight_entropy(grid, ctx.K, channel,
                                                 chunk_cells=97)
        h, z = _stream_weight_entropy(grid, ctx.K, channel)
        assert h_many == pytest.approx(h_one, abs=1e-12), (kind, channel)
        assert z_many == pytest.approx(z_one, rel=1e-13), (kind, channel)
        assert h == pytest.approx(h_one, abs=1e-12), (kind, channel)
        assert z == pytest.approx(z_one, rel=1e-13), (kind, channel)


def test_entropy_bounds():
    for e_ev in (1.0, 100.0, 10_000.0):
        ctx = make_context(e_ev, 50.0, CALIBRATED_KSCALE)
        for ch in SpinChannel:
            grid = ring_grid(ctx, ch)
            s = shannon_ring_discrete(ctx, ch)
            cap = grid.n_cells * (2 if ch is SpinChannel.ANTIPARALLEL else 1)
            assert 0.0 <= s <= math.log2(cap) + 1e-9, (e_ev, ch)


def test_refinement_adds_one_bit():
    # halving the cell width doubles the outcome count of a smooth
    # distribution: S gains one bit in the fine-grid limit
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for ch in (SpinChannel.SPINLESS, SpinChannel.PARALLEL,
               SpinChannel.ANTIPARALLEL):
        coarse = shannon_ring_discrete(ctx, ch, n_cells=16_000)
        fine = shannon_ring_discrete(ctx, ch, n_cells=32_000)
        assert fine - coarse == pytest.approx(1.0, abs=0.05)


def test_single_cell_entropy_zero():
    # one detector catches everything: zero bits, not a small negative
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    s = shannon_ring_discrete(ctx, SpinChannel.SPINLESS, n_cells=1)
    assert s == 0.0


# ---------------------------------------------------------------------------
# the O(1) reducer against the exact streamed sum
# ---------------------------------------------------------------------------

_H = entropy._EXACT_END_CELLS
_EXACT = entropy._EXACT_MAX_CELLS


def _reducer_grids():
    """(id, grid, K, channel): native ring and sphere grids at 100 eV and
    at 1 eV (where the cells' singularity sits about 5 cells before the
    first cell), post-selection bands below pi/2 (the parallel channel's
    double zero at their top; the others far from every singular angle,
    so summed from a few coarse panels), among them the benchmark's at
    1 keV / 50 um, half-shell antiparallel grids at 1 keV and 10 keV
    (whose top, pi/2, is far from 0 and pi), and uniform grids of 2H
    cells, of the most cells summed exactly, and just above each."""
    ring = make_context(100.0, 50_000.0, CALIBRATED_KSCALE)
    near = make_context(1.0, 50_000.0, CALIBRATED_KSCALE)
    band = make_context(1000.0, 50_000.0, CALIBRATED_KSCALE)
    coarse = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    ap = SpinChannel.ANTIPARALLEL
    for name, ctx in (("1keV", band),
                      ("10keV", make_context(1e4, 5000.0, CALIBRATED_KSCALE))):
        for kind in GridKind:
            yield (f"half-shell-{name}-{ap.value}-{kind.value}",
                   ring_grid(ctx, ap, kind=kind), ctx.K, ap)
    for ch in SpinChannel:
        for kind in GridKind:
            yield (f"ring-{ch.value}-{kind.value}",
                   ring_grid(ring, ch, kind=kind), ring.K, ch)
            yield (f"ring-1eV-{ch.value}-{kind.value}",
                   ring_grid(near, ch, kind=kind), near.K, ch)
        for theta_r in (0.01, 0.02, 0.05, 0.1, 0.2, 1.5):
            yield (f"band-{theta_r}-{ch.value}",
                   range_grid_below(0.5 * math.pi, theta_r, band.delta_theta),
                   band.K, ch)
        lo, hi = channel_domain(coarse, ch)
        for n in (2 * _H, 2 * _H + 1, _EXACT, _EXACT + 1, _EXACT + 2,
                  _EXACT + 7, 3 * _EXACT // 2):
            for kind in GridKind:
                yield (f"uniform-{n}-{ch.value}-{kind.value}",
                       uniform_grid(lo, hi, n, kind=kind), coarse.K, ch)


_REDUCER_GRIDS = list(_reducer_grids())


@pytest.mark.parametrize("grid,K,channel", [g[1:] for g in _REDUCER_GRIDS],
                         ids=[g[0] for g in _REDUCER_GRIDS])
def test_reducer_matches_streamed_oracle(grid, K, channel):
    # exact ends plus Euler-Maclaurin middle against every cell summed
    h, z = entropy._stream_weight_entropy(grid, K, channel)
    h_exact, z_exact = streamed_weight_entropy(grid, K, channel)
    assert abs(h - h_exact) <= 1e-13
    assert z == pytest.approx(z_exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("e_ev", [100.0, 10_000.0])
def test_reducer_z_matches_telescoped_total(e_ev):
    # the cells tile [theta_lo, theta_lo + n delta_theta], so their weights
    # sum to the closed form over that span
    ctx = make_context(e_ev, 50_000.0, CALIBRATED_KSCALE)
    grids = [ring_grid(ctx, ch) for ch in SpinChannel]
    grids += [range_grid_below(0.5 * math.pi, t, ctx.delta_theta)
              for t in (0.1, 1.5)]
    for grid in grids:
        for ch in SpinChannel:
            if grid.theta_hi > 0.5 * math.pi and ch is not SpinChannel.SPINLESS:
                continue
            z = entropy._stream_weight_entropy(grid, ctx.K, ch)[1]
            assert z == pytest.approx(telescoped_weight_mp(grid, ctx.K, ch),
                                      rel=1e-14, abs=0.0), (grid.n_cells, ch)


def _record_cell_terms(mp) -> list[list]:
    """The points of each _cell_terms call, recorded from here on."""
    calls = []
    cell_terms = entropy._cell_terms

    def recording(grid, K, channel, xs):
        calls.append(list(xs))
        return cell_terms(grid, K, channel, calls[-1])

    mp.setattr(entropy, "_cell_terms", recording)
    return calls


def test_postselect_bands_far_from_singular_angles_are_cheap():
    # postselect-range's 12 default bands at 1 keV / 50 um, three channels
    # each: only the parallel channel's top, at pi/2, needs exact cells and
    # narrow first panels (5,648 evaluations; 20,496 with both of them at
    # every end)
    ctx = make_context(1000.0, 50_000.0, CALIBRATED_KSCALE)
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_cell_terms(mp)
        for theta_r in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.2,
                        1.4, 1.5):
            grid = range_grid_below(0.5 * math.pi, theta_r, ctx.delta_theta)
            assert grid.n_cells > _EXACT
            for ch in SpinChannel:
                entropy._stream_weight_entropy(grid, ctx.K, ch)
    assert sum(map(len, calls)) <= 6000


@pytest.mark.parametrize("e_ev", [1.0, 10.0, 100.0, 1000.0, 10_000.0])
def test_grids_ending_next_to_singular_angles_keep_their_layout(e_ev):
    # native spinless and parallel grids end within H cells of 0 and of pi
    # (pi/2): both ends keep H exact cells and the middle keeps panels H
    # wide at both ends, bit for bit
    ctx = make_context(e_ev, 50_000.0, CALIBRATED_KSCALE)
    for ch in (SpinChannel.SPINLESS, SpinChannel.PARALLEL):
        for kind in GridKind:
            grid = ring_grid(ctx, ch, kind=kind)
            n = grid.n_cells
            assert n > _EXACT
            layouts = []

            def recording(a, b, first_a, first_b):
                layouts.append((a, b, panel_edges(a, b, first_a, first_b)))
                return layouts[-1][2]

            with pytest.MonkeyPatch.context() as mp:
                calls = _record_cell_terms(mp)
                mp.setattr(entropy, "panel_edges", recording)
                entropy._stream_weight_entropy(grid, ctx.K, ch)
            assert len(calls) == 2
            assert calls[0] == [*range(_H), *range(n - _H, n)]
            [(a, b, edges)] = layouts
            assert (a, b) == (_H - 0.5, n - _H - 0.5)
            assert edges == panel_edges(a, b, 64, 64)


def test_reducer_cost_does_not_grow_with_cells():
    # 1e4 eV and 1e12 eV at 1 um: 4e5 and 4e9 cells, each summed from two
    # calls of the cell integrals (the ends, then the Euler-Maclaurin
    # nodes) of under a thousand points, where the cell walk took minutes
    calls = []

    def counting(mid, hw, K, channel):
        calls.append(len(mid))
        return channel_cell_integrals(mid, hw, K, channel)

    for e_ev in (1e4, 1e12):
        ctx = make_context(e_ev, 1000.0, CALIBRATED_KSCALE)
        grid = ring_grid(ctx, SpinChannel.PARALLEL)
        assert grid.n_cells > _EXACT
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "channel_cell_integrals", counting)
            h, _ = entropy._stream_weight_entropy(grid, ctx.K,
                                                  SpinChannel.PARALLEL)
        assert 0.0 <= h <= math.log2(grid.n_cells)
    assert len(calls) == 4 and max(calls) < 1000


# ---------------------------------------------------------------------------
# the pure-Python Gauss-Legendre rule of the Euler-Maclaurin panels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", sorted({entropy._PANEL_NODES, 1, 2, 3, 7, 20, 40}))
def test_gauss_legendre_rule(n):
    # the panels use _PANEL_NODES.  numpy's nodes agree to 2 ulp, but its
    # weights are themselves up to 7e-14 off next to +-1 (20 nodes), so
    # the weights are refereed against 50-digit ones instead
    x, w = map(np.asarray, entropy._gauss_legendre(n))
    x_np, _ = np.polynomial.legendre.leggauss(n)
    _, w_mp = map(np.asarray, gauss_legendre_mp(n))
    assert np.all(np.abs(x - x_np) <= 2 * np.spacing(np.abs(x_np)))
    assert np.all(np.abs(w - w_mp) <= 1e-14 * w_mp)
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


# ---------------------------------------------------------------------------
# sphere (per-pixel) entropies
# ---------------------------------------------------------------------------

def test_sphere_ring_multiplicity_identity():
    # per-pixel entropy = per-ring entropy + mean log2(pixels per ring),
    # computed here through an independent materialized path
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.SPINLESS, kind=GridKind.SPHERE_PIXELS)
    centers, hw = grid_cells(grid)
    w = np.asarray(channel_cell_integrals(centers, hw, ctx.K,
                                          SpinChannel.SPINLESS))
    p = w / w.sum()
    m = np.array([ring_weight(t, grid.delta_theta) for t in centers])
    expected = shannon_discrete(p) + float((p * np.log2(m)).sum())
    assert shannon_sphere_discrete(ctx) == pytest.approx(expected, abs=1e-9)


def test_sphere_exceeds_ring_entropy():
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    s_sphere = shannon_sphere_discrete(ctx)
    s_ring = shannon_ring_discrete(ctx, SpinChannel.SPINLESS)
    assert s_sphere > s_ring  # azimuthal resolution only adds uncertainty


# ---------------------------------------------------------------------------
# continuous-limit forms against the exact sums (validity regime)
# ---------------------------------------------------------------------------

def test_ring_jaynes_matches_discrete_when_valid():
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    for n, tol in ((1000, 0.01), (20_000, 1e-4)):
        d = shannon_ring_discrete(ctx, SpinChannel.SPINLESS, n_cells=n)
        j = shannon_ring_jaynes(ctx, SpinChannel.SPINLESS, n_cells=n)
        assert j == pytest.approx(d, abs=tol)


def test_ring_jaynes_channels():
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    for ch in SpinChannel:
        d = shannon_ring_discrete(ctx, ch, n_cells=10_000)
        j = shannon_ring_jaynes(ctx, ch, n_cells=10_000)
        assert j == pytest.approx(d, abs=5e-3), ch


def test_sphere_jaynes_matches_discrete_when_valid():
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    d = shannon_sphere_discrete(ctx)
    j = shannon_sphere_jaynes(ctx)
    assert j == pytest.approx(d, abs=0.05)


# 1 keV and 10 keV with a 50 um packet put the cutoff at epsilon ~ 4e-8 and
# 4e-9 rad, nine octaves below any fixed breakpoint list scaled by 1000;
# 100 keV (epsilon ~ 4.1e-10) is near the smallest cutoff the 2^50-cell
# sum accepts, and 1 eV / 50 nm is the validity regime of the tests above
@pytest.mark.parametrize("e_ev, l_nm",
                         [(1e3, 5e4), (1e4, 5e4), (1e5, 5e4), (1.0, 50.0)])
@pytest.mark.parametrize("channel", list(SpinChannel), ids=lambda c: c.value)
def test_continuous_limit_matches_oracle(e_ev, l_nm, channel):
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    ring = continuous_limit_oracle(ctx, channel.value, "ring", n_cells=10_000)
    sphere = continuous_limit_oracle(ctx, channel.value, "sphere")
    assert abs(shannon_ring_jaynes(ctx, channel, n_cells=10_000) - ring) <= 1e-9
    assert abs(shannon_sphere_jaynes(ctx, channel) - sphere) <= 1e-9


@pytest.mark.parametrize("channel", list(SpinChannel), ids=lambda c: c.value)
def test_continuous_limit_refuses_tiny_cutoff(channel):
    # 1 MeV / 50 um: epsilon ~ 4.1e-11 rad is fewer than 1e5 cells of the
    # 2^50-cell grid, whose discreteness error would exceed 1e-10 bits
    ctx = make_context(1e6, 5e4, CALIBRATED_KSCALE)
    for form in (lambda: shannon_ring_jaynes(ctx, channel, n_cells=10_000),
                 lambda: shannon_sphere_jaynes(ctx, channel)):
        with pytest.raises(NumericalError,
                           match=r"epsilon = 4\.07e-11 rad.*shannon_ring_discrete"):
            form()


@pytest.mark.parametrize("e_ev, channel, form, reference", [
    (1e3, "spinless", "ring", -11.749132620018038),
    (1e4, "spinless", "ring", -15.07106074857157),
    (1e3, "parallel", "ring", -10.749132620019102),
    (1e3, "parallel", "sphere", -0.662759523986506),
])
def test_continuous_limit_oracle_matches_mpmath(e_ev, channel, form, reference):
    # references from mpmath at 30 digits, 50 um packet, k-scale sqrt 2
    ctx = make_context(e_ev, 5e4, CALIBRATED_KSCALE)
    assert continuous_limit_oracle(ctx, channel, form, n_cells=10_000) == \
        pytest.approx(reference, abs=1e-12)


# ---------------------------------------------------------------------------
# energy sweeps through the CLI
# ---------------------------------------------------------------------------

def test_sweep_single_energy_matches_direct_call(capsys):
    rows = _json_rows(capsys, ["spinless-sweep", "--energy-ev", "5",
                               "--packet-nm", "100", *K_FLAGS])
    assert len(rows) == 1
    row = rows[0]
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    assert row["status"] == "ok"
    assert row["S_bits"] == shannon_ring_discrete(ctx, SpinChannel.SPINLESS)
    assert row["n_cells"] == ring_grid(ctx, SpinChannel.SPINLESS).n_cells


def test_sweep_error_rows_do_not_abort(capsys):
    # 0.001 eV at 100 nm has no accessible angle: that row fails alone
    rows = _json_rows(capsys, ["spinless-sweep", "--energy-list", "5,0.001,10",
                               "--packet-nm", "100", *K_FLAGS], code=3)
    assert [r["status"] == "ok" for r in rows] == [True, False, True]
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["S_bits"] is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_fails_the_row(monkeypatch, capsys, bad):
    # the reducer's w > 0 filter would drop a NaN or -inf weight, and the
    # final clamp would turn the NaN entropy an inf weight gives into 0
    def spoiled(mid, hw, K, channel):
        w = channel_cell_integrals(mid, hw, K, channel)
        w[len(w) // 2] = bad
        return w

    monkeypatch.setattr(entropy, "channel_cell_integrals", spoiled)
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    message = ("detection entropy is nan" if bad == math.inf
               else "non-finite cell weight")
    with pytest.raises(NumericalError, match=message):
        shannon_ring_discrete(ctx, SpinChannel.SPINLESS)
    assert main(["spinless-sweep", "--energy-ev", "5",
                 "--k-scale", repr(CALIBRATED_KSCALE)]) == 3
    assert message in capsys.readouterr().err


def test_non_finite_entropy_fails(monkeypatch):
    # every weight finite, but w ln w overflows: the entropy is -inf,
    # which the clamp at 0 used to hide
    def huge(mid, hw, K, channel):
        w = [1.0] * len(mid)
        w[0] = 1e308
        return w

    monkeypatch.setattr(entropy, "channel_cell_integrals", huge)
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    with pytest.raises(NumericalError, match="detection entropy is -inf"):
        shannon_ring_discrete(ctx, SpinChannel.SPINLESS)


def test_sweep_sphere_rows_report_pixel_count(capsys):
    rows = _json_rows(capsys, ["sphere-sweep", "--energy-ev", "5",
                               "--packet-nm", "100", *K_FLAGS])
    row = rows[0]
    assert row["status"] == "ok"
    assert row["pixel_count"] > row["n_rings"] > 0
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    assert row["S_bits"] == shannon_sphere_discrete(ctx)


def test_sweep_monotone_decreasing(capsys):
    rows = _json_rows(capsys, ["spinless-sweep", "--energy-list",
                               "1,10,100,1000,10000", "--packet-nm", "50",
                               *K_FLAGS])
    s = [r["S_bits"] for r in rows]
    assert all(r["status"] == "ok" for r in rows)
    assert all(a > b for a, b in zip(s, s[1:]))
