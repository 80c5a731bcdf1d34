import math

import pytest

from escatter import (
    EquatorEntropies,
    SpinChannel,
    SpinEntropyResult,
    entropy_antiparallel,
    entropy_parallel,
    equator_entropies,
    make_context,
    postselect_entropies,
)

from oracles import CALIBRATED_KSCALE


def _ctx(e_ev=5.0, l_nm=100.0):
    return make_context(e_ev, l_nm, CALIBRATED_KSCALE)


# ---------------------------------------------------------------------------
# exchange-bit bookkeeping
# ---------------------------------------------------------------------------

def test_result_types_are_immutable_values():
    r = entropy_parallel(_ctx())
    assert SpinEntropyResult(channel=r.channel, grid=r.grid, S=r.S,
                             S_modified=r.S_modified) == r
    eq = equator_entropies(4)
    assert eq == EquatorEntropies(n_cells=4, S_parallel=3.0, S_antiparallel=4.0,
                                  S_parallel_modified=2.0,
                                  S_antiparallel_modified=3.0)
    assert eq.delta_S == 1.0
    for obj, attr in ((r, "S"), (r, "grid"), (eq, "n_cells"), (eq, "delta_S")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0.0)


def test_modified_strips_exactly_one_bit():
    ctx = _ctx()
    for fn in (entropy_parallel, entropy_antiparallel):
        r = fn(ctx)
        assert r.S == 1.0 + r.S_modified
        assert r.S_modified >= 0.0


def test_channels_tagged_on_results():
    ctx = _ctx()
    assert entropy_parallel(ctx).channel is SpinChannel.PARALLEL
    assert entropy_antiparallel(ctx).channel is SpinChannel.ANTIPARALLEL


def test_antiparallel_exceeds_parallel():
    for e_ev in (1.0, 5.0, 100.0):
        ctx = _ctx(e_ev)
        assert entropy_antiparallel(ctx).S > entropy_parallel(ctx).S


# ---------------------------------------------------------------------------
# equator ring (closed forms)
# ---------------------------------------------------------------------------

def test_equator_closed_forms():
    eq = equator_entropies(3140)
    log2n = math.log2(3140)
    assert eq.S_parallel_modified == log2n
    assert eq.S_parallel == 1.0 + log2n
    assert eq.S_antiparallel_modified == 1.0 + log2n
    assert eq.S_antiparallel == 2.0 + log2n
    assert eq.delta_S == pytest.approx(1.0, abs=1e-12)

    one = equator_entropies(1)
    assert one.S_parallel == 1.0
    assert one.S_antiparallel == 2.0
    with pytest.raises(ValueError):
        equator_entropies(0)


# ---------------------------------------------------------------------------
# equator post-selection
# ---------------------------------------------------------------------------

def test_postselect_two_cell_regression():
    ctx = _ctx()
    row = postselect_entropies(ctx, 2.5 * ctx.delta_theta)
    assert row["n_cells"] == 2
    assert not row["zero_weight"]
    assert row["S_spinless"] == pytest.approx(0.999998, abs=1e-4)
    assert row["S_par"] == pytest.approx(0.543562, abs=1e-4)
    assert row["S_ap"] == pytest.approx(1.999989, abs=1e-4)
    # near the equator each positional cell splits into two nearly equal
    # spin branches, so antiparallel sits one bit above spinless
    assert row["S_ap"] - row["S_spinless"] == pytest.approx(1.0, abs=1e-4)


def test_postselect_single_cell():
    ctx = _ctx()
    row = postselect_entropies(ctx, 1.5 * ctx.delta_theta)
    assert row["n_cells"] == 1
    assert row["S_spinless"] == 0.0
    assert row["S_par"] == 0.0
    assert row["S_ap"] == pytest.approx(1.0, abs=1e-4)
    assert row["delta_S"] == pytest.approx(1.0, abs=1e-4)


def test_postselect_gap_curve_regression():
    ctx = _ctx()
    for theta_r, expected in ((0.1, 1.61609), (0.5, 1.45135), (1.0, 0.94071)):
        row = postselect_entropies(ctx, theta_r)
        assert row["delta_S"] == pytest.approx(expected, abs=1e-3), theta_r


def test_postselect_widest_range_channels_converge():
    # with the acceptance widened to the whole half shell the exchange
    # asymmetry washes out and all three channels agree closely
    ctx = _ctx()
    row = postselect_entropies(ctx, math.pi / 2.0 - ctx.epsilon)
    assert row["S_spinless"] == pytest.approx(2.648363, abs=1e-3)
    assert row["S_par"] == pytest.approx(2.646991, abs=1e-3)
    assert row["S_ap"] == pytest.approx(2.648508, abs=1e-3)
    assert row["delta_S"] < 0.01


def test_postselect_validation():
    ctx = _ctx()
    with pytest.raises(ValueError):
        postselect_entropies(ctx, 0.0)
    with pytest.raises(ValueError):
        postselect_entropies(ctx, math.pi / 2.0)  # exceeds pi/2 - cutoff
    with pytest.raises(ValueError, match="no complete cell"):
        postselect_entropies(ctx, 0.5 * ctx.delta_theta)
