import json
import math

import pytest

from escatter import (
    EquatorEntropies,
    PostselectEntropies,
    SpinChannel,
    equator_entropies,
    make_context,
    postselect_entropies,
    shannon_ring_discrete,
)
from escatter.cli import _DEFAULT_THETA_R, main

#: the wave-number calibration of the benchmark tables, defined here so
#: that this file needs neither numpy nor the oracles' scipy and mpmath
CALIBRATED_KSCALE = math.sqrt(2.0)


def _ctx(e_ev=5.0, l_nm=100.0):
    return make_context(e_ev, l_nm, CALIBRATED_KSCALE)


def _json_rows(capsys, argv: list[str]) -> list[dict]:
    """Run the CLI in process with JSON output; return its rows."""
    assert main(argv + ["--k-scale", repr(CALIBRATED_KSCALE), "--threads", "1",
                        "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# exchange-bit bookkeeping
# ---------------------------------------------------------------------------

def test_result_types_are_immutable_values():
    eq = equator_entropies(4)
    assert eq == EquatorEntropies(S_parallel=3.0, S_antiparallel=4.0,
                                  S_parallel_modified=2.0,
                                  S_antiparallel_modified=3.0)
    assert eq.delta_S == 1.0
    ctx = _ctx()
    band = postselect_entropies(ctx, 2.5 * ctx.delta_theta)
    assert PostselectEntropies._fields == ("n_cells", "S_spinless", "S_par",
                                           "S_ap")
    assert band.delta_S == band.S_ap - band.S_par
    for result in (eq, band):
        for attr in (*result._fields, "delta_S", "theta_r"):
            with pytest.raises(AttributeError):
                setattr(result, attr, 0.0)


def test_spin_rows_are_their_results(capsys):
    # a postselect-range or equator row's computed columns are its result's
    # fields and gap, and postselect-range's constant zero_weight
    rows = _json_rows(capsys, ["postselect-range", "--energy-ev", "5",
                               "--packet-nm", "100"])
    assert [row["theta_r"] for row in rows] == list(_DEFAULT_THETA_R)
    columns = ("n_cells", "S_spinless", "S_par", "S_ap", "delta_S",
               "zero_weight")
    for row in rows:
        res = postselect_entropies(_ctx(), row["theta_r"])
        assert tuple(row[c] for c in columns) == (*res, res.delta_S, False)
    [row] = _json_rows(capsys, ["equator"])
    res = equator_entropies(row["n_cells"])
    assert tuple(row[c] for c in ("S_par", "S_ap", "S_par_modified",
                                  "S_ap_modified", "delta_S")) == \
        (*res, res.delta_S)


def test_modified_strips_exactly_one_bit(capsys):
    # spin-sweep adds the exchange bit to the detection entropy, and to
    # nothing else
    for row in _json_rows(capsys, ["spin-sweep", "--energy-list", "1,5,100",
                                   "--packet-nm", "100"]):
        for s, s_modified in ((row["S_par"], row["S_par_modified"]),
                              (row["S_ap"], row["S_ap_modified"])):
            assert s == 1.0 + s_modified
            assert s_modified >= 0.0


def test_antiparallel_exceeds_parallel(capsys):
    rows = _json_rows(capsys, ["spin-sweep", "--energy-list", "1,5,100",
                               "--packet-nm", "100"])
    for e_ev, row in zip((1.0, 5.0, 100.0), rows):
        ctx = _ctx(e_ev)
        assert shannon_ring_discrete(ctx, SpinChannel.ANTIPARALLEL) > \
            shannon_ring_discrete(ctx, SpinChannel.PARALLEL)
        assert row["S_ap"] > row["S_par"]


def test_spin_sweep_reads_the_ring_reducer(capsys):
    # one route from a spin channel to its detection entropy: spin-sweep's
    # modified entropies are spinless-sweep's ring entropies of the same
    # channel, bit for bit, and its S adds exactly the exchange bit
    flags = ["--energy-list", "1,100,1000", "--packet-nm", "50000"]
    spin = _json_rows(capsys, ["spin-sweep", *flags])
    ring = {channel: _json_rows(capsys, ["spinless-sweep", "--channel",
                                         channel, *flags])
            for channel in ("parallel", "antiparallel")}
    assert len(spin) == 3
    for i, row in enumerate(spin):
        assert row["status"] == "ok"
        assert row["S_par_modified"] == ring["parallel"][i]["S_bits"]
        assert row["S_ap_modified"] == ring["antiparallel"][i]["S_bits"]
        assert row["n_cells"] == ring["parallel"][i]["n_cells"]
        assert row["S_par"] == 1.0 + row["S_par_modified"]
        assert row["S_ap"] == 1.0 + row["S_ap_modified"]


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
    assert row.n_cells == 2
    assert row.S_spinless == pytest.approx(0.999998, abs=1e-4)
    assert row.S_par == pytest.approx(0.543562, abs=1e-4)
    assert row.S_ap == pytest.approx(1.999989, abs=1e-4)
    # near the equator each positional cell splits into two nearly equal
    # spin branches, so antiparallel sits one bit above spinless
    assert row.S_ap - row.S_spinless == pytest.approx(1.0, abs=1e-4)


def test_postselect_single_cell(capsys):
    # a one-cell band is exactly 0 bits in each channel with one branch,
    # whatever the units: 512 eV / 0.01953125 nm / k-scale 32 sqrt 2 is
    # 0.5 eV / 20 nm / sqrt 2 under the scale law, and printed 5e-15 bits
    # where ln Z and T / Z rounded apart
    ctx = _ctx()
    row = postselect_entropies(ctx, 1.5 * ctx.delta_theta)
    assert row.n_cells == 1
    assert row.S_spinless == 0.0
    assert row.S_par == 0.0
    assert row.S_ap == pytest.approx(1.0, abs=1e-4)
    assert row.delta_S == pytest.approx(1.0, abs=1e-4)
    assert main(["postselect-range", "--energy-ev", "512", "--packet-nm",
                 "0.01953125", "--k-scale", "45.254833995939045", "--theta-r",
                 "0.05", "--threads", "1", "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert (row["n_cells"], row["status"]) == (1, "ok")
    assert row["S_spinless"] == 0.0
    assert row["S_par"] == 0.0


def test_postselect_row_at_huge_e_l_computes(capsys):
    # at 1e21 eV and a 1e280 nm packet every channel's weight in
    # pi / (4 K^4) units underflowed to 0, and the row printed placeholder
    # zeros with zero_weight set.  Weighed relative to its first cell the
    # band's 8.1e288 cells give their entropies: a 0.01 rad band at the
    # equator is nearly uniform in the spinless channel, so S_spinless is
    # within 1e-3 bits of log2 n_cells, and delta_S follows the thin-band
    # expansion in postselect_entropies' docstring
    row, = _json_rows(capsys, ["postselect-range", "--energy-ev", "1e21",
                               "--packet-nm", "1e280", "--theta-r", "0.01"])
    assert (row["zero_weight"], row["status"]) == (False, "ok")
    for column, value in (("S_spinless", 959.733267194), ("S_par", 959.110098621),
                          ("S_ap", 960.733195179), ("delta_S", 1.62309655759)):
        assert row[column] == pytest.approx(value, rel=1e-9), column
    assert abs(row["S_spinless"] - math.log2(row["n_cells"])) < 1e-3
    band = row["n_cells"] * _ctx(1e21, 1e280).delta_theta
    thin = 1.0 + (math.log(3.0) - 2.0 / 3.0) / math.log(2.0) \
        - 12.0 / 25.0 * band ** 2 / math.log(2.0)
    assert row["delta_S"] == pytest.approx(thin, abs=1e-8)


def test_postselect_gap_curve_regression():
    ctx = _ctx()
    for theta_r, expected in ((0.1, 1.61609), (0.5, 1.45135), (1.0, 0.94071)):
        row = postselect_entropies(ctx, theta_r)
        assert row.delta_S == pytest.approx(expected, abs=1e-3), theta_r


def test_postselect_widest_range_channels_converge():
    # with the acceptance widened to the whole half shell the exchange
    # asymmetry washes out and all three channels agree closely
    ctx = _ctx()
    row = postselect_entropies(ctx, math.pi / 2.0 - ctx.epsilon)
    assert row.S_spinless == pytest.approx(2.648363, abs=1e-3)
    assert row.S_par == pytest.approx(2.646991, abs=1e-3)
    assert row.S_ap == pytest.approx(2.648508, abs=1e-3)
    assert row.delta_S < 0.01


def test_postselect_validation():
    ctx = _ctx()
    with pytest.raises(ValueError):
        postselect_entropies(ctx, 0.0)
    with pytest.raises(ValueError):
        postselect_entropies(ctx, math.pi / 2.0)  # exceeds pi/2 - cutoff
    with pytest.raises(ValueError, match="no complete cell"):
        postselect_entropies(ctx, 0.5 * ctx.delta_theta)
