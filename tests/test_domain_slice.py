"""A tier-1 slice of the domain scan in ``domain_scan.py``: every command
and channel at k-scale sqrt(2), over energies and packet sizes at every
50th decade from 1e-300 to 1e300 (eV, nm), and at the k-scales 5e-324
and 1e-300, which round K or K L below the normal float range, on every
100th decade.  No row may fail with Python's or numpy's own text, no
call may raise or warn, and every ``ok`` row's computed values are
finite."""

import math

import pytest

from domain_scan import FOREIGN_TEXT, SCANS, _call, _calls

_FOREIGN = tuple("error: " + text for text in FOREIGN_TEXT)
_SCAN_PARAMS = pytest.mark.parametrize("command, flags",
                                       [scan[1:] for scan in SCANS],
                                       ids=[scan[0] for scan in SCANS])


def _assert_rows_are_ok_or_fail_with_escatter_text(command, flags, k_scales,
                                                   step):
    decades = [f"1e{p}" for p in range(-300, 301, step)]
    for argv in _calls(command, flags, k_scales, decades):
        rows, broke = _call(argv)
        assert not broke, (argv, rows)
        for row in rows:
            status = row["status"]
            assert status == "ok" or (status.startswith("error: ")
                                      and not status.startswith(_FOREIGN)), \
                (argv, row)
            # JSON has null for a non-finite value
            assert status != "ok" or None not in row.values(), (argv, row)


@_SCAN_PARAMS
def test_domain_slice_rows_are_ok_or_fail_with_escatter_text(command, flags):
    _assert_rows_are_ok_or_fail_with_escatter_text(
        command, flags, (repr(math.sqrt(2.0)),), 50)


@_SCAN_PARAMS
def test_tiny_k_scale_rows_are_ok_or_fail_with_escatter_text(command, flags):
    _assert_rows_are_ok_or_fail_with_escatter_text(
        command, flags, ("5e-324", "1e-300"), 100)
