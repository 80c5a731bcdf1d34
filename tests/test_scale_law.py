"""The scale law as a referee: every table depends on (E, L, k) only
through the cutoff angle epsilon (set by E L) and K L = 2 / delta_theta.

The map (E, L, k) -> (4^j E, L / 4^j, 2^j k) is exact in binary floating
point: it leaves epsilon and delta_theta bit-identical and scales K and
sigma_k by exactly 4^j, which only sets the units.  So each command's
rows must come back the same, up to rounding, with no oracle needed.
"""

import contextlib
import io
import json
import math

import pytest

from escatter.cli import main

SQRT2 = math.sqrt(2.0)

#: ordinary points (E in eV, L in nm)
_POINTS = [(5.0, 100.0), (100.0, 1000.0), (0.5, 20.0)]
#: the extreme slice, 1e20-1e30 eV with 1e240-1e280 nm, where only the
#: post-selection bands, far from theta = 0, hold cells the floats
#: resolve.  Weights in units of pi / (4 K^4) underflowed here, and the
#: rows broke the law; the reducer weighs them relative to the first cell
_EXTREME_POINTS = [(1e20, 1e240), (1e21, 1e280), (1e25, 1e260), (1e30, 1e250)]

#: relative bound on the floats: the detection sums round ln w
#: differently (worst seen 9.6e-14); vn-compare's S_shannon_ring is
#: 5.8e-5 bits at 100 eV / 1 um and n = 256, so its last bits are
#: 1.3e-10 of it
_RUNS = {
    "spinless-sweep-spinless": (["spinless-sweep", "--channel", "spinless"],
                                1e-12),
    "spinless-sweep-parallel": (["spinless-sweep", "--channel", "parallel"],
                                1e-12),
    "sphere-sweep-spinless": (["sphere-sweep", "--channel", "spinless"],
                              1e-12),
    "sphere-sweep-antiparallel": (["sphere-sweep", "--channel",
                                   "antiparallel"], 1e-12),
    "spin-sweep": (["spin-sweep"], 1e-12),
    "postselect-range": (["postselect-range"], 1e-12),
    "vn-compare": (["vn-compare", "--n-grid", "256"], 1e-9),
}


def _rows(argv: list[str], e_ev: float, l_nm: float, k_scale: float):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--energy-ev", repr(e_ev), "--packet-nm", repr(l_nm),
                            "--k-scale", repr(k_scale), "--threads", "1",
                            "--format", "json"])
    return code, json.loads(out.getvalue())


_CASES = ([(run, point) for run in _RUNS for point in _POINTS]
          + [("postselect-range", point) for point in _EXTREME_POINTS])


@pytest.mark.parametrize("run, point", _CASES,
                         ids=[f"{run}-{e:g}eV-{l:g}nm" for run, (e, l) in _CASES])
def test_rows_obey_the_scale_law(run, point):
    argv, rel = _RUNS[run]
    e_ev, l_nm = point
    code, base = _rows(argv, e_ev, l_nm, SQRT2)
    assert any(row["status"] == "ok" for row in base)
    for j in (-3, 1, 5):
        scaled_code, scaled = _rows(argv, e_ev * 4.0 ** j, l_nm / 4.0 ** j,
                                    SQRT2 * 2.0 ** j)
        assert scaled_code == code
        assert len(scaled) == len(base)
        for want, got in zip(base, scaled):
            assert got.keys() == want.keys()
            for column, value in want.items():
                if column == "E_ev":
                    assert got[column] == e_ev * 4.0 ** j
                elif isinstance(value, float) and column != "theta_r":
                    # no absolute floor: a one-cell band is exactly 0
                    assert got[column] == pytest.approx(value, rel=rel, abs=0.0), (
                        j, column)
                else:  # theta_r, cell counts, zero_weight, status
                    assert got[column] == value, (j, column)
