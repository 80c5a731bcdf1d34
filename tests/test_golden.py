"""Golden CLI tables: every case's CSV stdout must match its committed
file in ``tests/golden/`` byte for byte, config-hash header included.

The files pin the printed 12 significant digits of the ring, sphere, spin,
post-selection and vn-compare tables, so a refactor of the reducers or of
the cell integrals that moves a printed digit shows here.  JSON prints
each float's repr, 17 digits, of which the last three or four are
rounding noise of any summation order (the exact streamed sum and the
Euler-Maclaurin reducer differ there by 1e-14), so a JSON table must
match its file in everything but those digits: the same rows, keys,
integers, strings and nulls, and every float equal to 12 digits.  To
write the files from the code on the path (only when a change of printed
values is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from escatter.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_RING = ["--packet-nm", "50000", "--k-scale", repr(math.sqrt(2.0)),
         "--energy-list", "1,100,1000,10000"]

#: (file stem, argv without --format); each case is written as .csv and .json
CASES = (
    ("spinless-sweep", ["spinless-sweep", *_RING]),
    ("sphere-sweep", ["sphere-sweep", *_RING]),
    ("sphere-sweep-parallel", ["sphere-sweep", *_RING, "--channel", "parallel"]),
    ("sphere-sweep-antiparallel", ["sphere-sweep", *_RING,
                                   "--channel", "antiparallel"]),
    ("spin-sweep", ["spin-sweep", *_RING]),
    ("postselect-range", ["postselect-range", "--packet-nm", "50000",
                          "--k-scale", repr(math.sqrt(2.0)),
                          "--energy-ev", "1000"]),
    ("vn-compare", ["vn-compare", "--packet-nm", "100",
                    "--k-scale", repr(math.sqrt(2.0)), "--energy-ev", "5"]),
    # the meridian-vn benchmark's own size and packet
    ("vn-compare-1024", ["vn-compare", "--packet-nm", "100",
                         "--k-scale", repr(math.sqrt(2.0)),
                         "--energy-list", "19.6,5.1", "--n-grid", "1024"]),
    # a row whose band was too wide for the band solver (kd = 277 with
    # pairs kept to 45 sigma_k) and now takes it (kd = 158); the files
    # were written by the dense solve at 45 sigma_k
    ("vn-compare-0.2-ev", ["vn-compare", "--packet-nm", "100",
                           "--k-scale", repr(math.sqrt(2.0)),
                           "--energy-ev", "0.2", "--n-grid", "1024"]),
)

FORMATS = ("csv", "json")


def render(argv: list[str], fmt: str) -> str:
    """The CLI's stdout for ``argv`` in format ``fmt`` (exit code 0)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", fmt, "--threads", "2"])
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def _json_at_12_digits(text: str):
    return json.loads(text, parse_float=lambda s: format(float(s), ".12g"))


@pytest.mark.parametrize("stem,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_csv_matches_golden_bytes(stem, argv):
    expected = (GOLDEN / f"{stem}.csv").read_text(encoding="utf-8")
    assert render(argv, "csv") == expected


@pytest.mark.parametrize("stem,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_json_matches_golden_to_12_digits(stem, argv):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert _json_at_12_digits(render(argv, "json")) == \
        _json_at_12_digits(expected)


_VN_CASES = [case for case in CASES if case[1][0] == "vn-compare"]


#: (handles cleared, id suffix): the dense eigvalsh in place of the band
#: solver, then without the subnormal flush, then the band solver without it
_FALLBACKS = [(("_DSBEVD",), ""), (("_DSBEVD", "_LIBC"), "-no-flush"),
              (("_LIBC",), "-band-no-flush")]


@pytest.mark.parametrize("stem,argv,cleared",
                         [(*case, cleared) for cleared, _ in _FALLBACKS
                          for case in _VN_CASES],
                         ids=[case[0] + suffix for _, suffix in _FALLBACKS
                              for case in _VN_CASES])
def test_vn_compare_dense_fallback_matches_golden_bytes(stem, argv, cleared,
                                                        monkeypatch):
    # where numpy's LAPACK has no band solver (_DSBEVD cleared), where the
    # eigensolve flushes no subnormals (_LIBC cleared: off x86-64 Linux),
    # and where both hold, the table is the same
    from escatter import density_matrix

    for handle in cleared:
        monkeypatch.setattr(density_matrix, handle, None)
    expected = (GOLDEN / f"{stem}.csv").read_text(encoding="utf-8")
    assert render(argv, "csv") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in CASES:
        for fmt in FORMATS:
            path = GOLDEN / f"{stem}.{fmt}"
            path.write_text(render(argv, fmt), encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
