import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from escatter import (
    GridKind,
    ProbabilityVector,
    SpinChannel,
    detection_entropy_bits,
    equator_grid,
    make_context,
    ring_grid,
    ring_probabilities,
    ring_weight,
    shannon_discrete,
    shannon_ring_discrete,
    shannon_ring_jaynes,
    shannon_sphere_discrete,
    shannon_sphere_jaynes,
    sweep_energies,
)
from escatter import entropy
from escatter.cli import main
from escatter.errors import NumericalError
from escatter.geometry import channel_cell_integrals, direct_exchange_cell_integrals

from oracles import CALIBRATED_KSCALE


# ---------------------------------------------------------------------------
# plain Shannon sums
# ---------------------------------------------------------------------------

def test_shannon_discrete_basics():
    assert shannon_discrete([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_discrete([1.0]) == 0.0
    assert shannon_discrete([0.0, 1.0, 0.0]) == 0.0
    assert shannon_discrete([0.125] * 8) == pytest.approx(3.0, abs=1e-14)
    assert shannon_discrete([0.25] * 4) == pytest.approx(2.0, abs=1e-14)


def test_shannon_discrete_rejects_bad_vectors():
    with pytest.raises(ValueError, match="not normalized"):
        shannon_discrete([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        shannon_discrete([1.5, -0.5])


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


def test_probability_vector_validation():
    v = ProbabilityVector(p=[0.25, 0.75])
    assert isinstance(v.p, np.ndarray)
    with pytest.raises(ValueError):
        ProbabilityVector(p=[0.3, 0.3])
    with pytest.raises(ValueError):
        ProbabilityVector(p=[1.5, -0.5])


# ---------------------------------------------------------------------------
# detection entropies on ring grids
# ---------------------------------------------------------------------------

def test_equator_closed_forms():
    g = equator_grid(1024)
    assert detection_entropy_bits(g, 1.0, SpinChannel.PARALLEL) == 10.0
    assert detection_entropy_bits(g, 1.0, SpinChannel.ANTIPARALLEL) == 11.0
    assert detection_entropy_bits(g, 7.3, SpinChannel.SPINLESS) == 10.0


def test_streamed_matches_materialized():
    # the chunked streaming sum must agree with materializing the full
    # probability vector and feeding it to the plain Shannon sum
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    for ch in (SpinChannel.SPINLESS, SpinChannel.PARALLEL,
               SpinChannel.DISTINGUISHABLE):
        streamed = shannon_ring_discrete(ctx, ch)
        vec = ring_probabilities(ctx, ch)
        assert streamed == pytest.approx(shannon_discrete(vec), abs=1e-10)


def test_streamed_antiparallel_two_branches():
    # antiparallel outcomes are (cell, branch) pairs; materialize both
    # branch weight vectors explicitly and compare
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.ANTIPARALLEL)
    F, G = direct_exchange_cell_integrals(grid.edges(), ctx.K)
    w = np.concatenate([F, G])
    h = shannon_discrete(w / w.sum())
    assert shannon_ring_discrete(ctx, SpinChannel.ANTIPARALLEL) == \
        pytest.approx(h, abs=1e-10)


def test_streaming_chunk_size_irrelevant():
    # identical result whether the grid streams in one chunk or many, on
    # ring cells and on sphere pixels (the per-ring multiplicity term)
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    from escatter.entropy import _stream_weight_entropy

    class _Tiny:
        def __init__(self, grid):
            self._grid = grid

        def __getattr__(self, name):
            return getattr(self._grid, name)

        def iter_edge_chunks(self, chunk_cells=0):
            return self._grid.iter_edge_chunks(chunk_cells=97)

    for kind, channel in ((GridKind.RINGS, SpinChannel.SPINLESS),
                          (GridKind.SPHERE_PIXELS, SpinChannel.SPINLESS),
                          (GridKind.SPHERE_PIXELS, SpinChannel.ANTIPARALLEL)):
        grid = ring_grid(ctx, channel, kind=kind)
        h_one, z_one = _stream_weight_entropy(grid, ctx.K, channel)
        h_many, z_many = _stream_weight_entropy(_Tiny(grid), ctx.K, channel)
        assert h_many == pytest.approx(h_one, abs=1e-12), (kind, channel)
        assert z_many == pytest.approx(z_one, rel=1e-13), (kind, channel)


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
# sphere (per-pixel) entropies
# ---------------------------------------------------------------------------

def test_sphere_ring_multiplicity_identity():
    # per-pixel entropy = per-ring entropy + mean log2(pixels per ring),
    # computed here through an independent materialized path
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    grid = ring_grid(ctx, SpinChannel.SPINLESS, kind=GridKind.SPHERE_PIXELS)
    vec = ring_probabilities(ctx, SpinChannel.SPINLESS)
    edges = grid.edges()
    centers = 0.5 * (edges[:-1] + edges[1:])
    m = np.array([ring_weight(t, grid.delta_theta) for t in centers])
    expected = shannon_discrete(vec) + float((vec.p * np.log2(m)).sum())
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


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------

def test_sweep_single_energy_matches_direct_call():
    rows = sweep_energies([5.0], 100.0, k_scale=CALIBRATED_KSCALE)
    assert len(rows) == 1
    row = rows[0]
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    assert row["status"] == "ok"
    assert row["S_bits"] == shannon_ring_discrete(ctx, SpinChannel.SPINLESS)
    assert row["n_cells"] == ring_grid(ctx, SpinChannel.SPINLESS).n_cells


def test_sweep_error_rows_do_not_abort():
    rows = sweep_energies([5.0, -1.0, 10.0], 100.0,
                          k_scale=CALIBRATED_KSCALE)
    assert [r["status"] == "ok" for r in rows] == [True, False, True]
    assert rows[1]["status"].startswith("error:")
    assert math.isnan(rows[1]["S_bits"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_fails_the_row(monkeypatch, capsys, bad):
    # the reducer's w > 0 filter would drop a NaN or -inf weight, and the
    # final clamp would turn the NaN entropy an inf weight gives into 0
    def spoiled(edges, K, channel):
        w = channel_cell_integrals(edges, K, channel)
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


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_non_finite_entropy_fails(monkeypatch):
    # every weight finite, but w ln w overflows: the entropy is -inf,
    # which the clamp at 0 used to hide
    def huge(edges, K, channel):
        w = np.ones(len(edges) - 1)
        w[0] = 1e308
        return w

    monkeypatch.setattr(entropy, "channel_cell_integrals", huge)
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    with pytest.raises(NumericalError, match="detection entropy is -inf"):
        shannon_ring_discrete(ctx, SpinChannel.SPINLESS)


def test_sweep_sphere_rows_report_pixel_count():
    rows = sweep_energies([5.0], 100.0, geometry=GridKind.SPHERE_PIXELS,
                          k_scale=CALIBRATED_KSCALE)
    row = rows[0]
    assert row["status"] == "ok"
    assert row["pixel_count"] > row["n_rings"] > 0
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    assert row["S_bits"] == shannon_sphere_discrete(ctx)


def test_sweep_monotone_decreasing():
    energies = [1.0, 10.0, 100.0, 1000.0, 10_000.0]
    rows = sweep_energies(energies, 50.0, k_scale=CALIBRATED_KSCALE)
    s = [r["S_bits"] for r in rows]
    assert all(r["status"] == "ok" for r in rows)
    assert all(a > b for a, b in zip(s, s[1:]))
