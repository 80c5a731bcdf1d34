"""Domain scan: every command and channel over energies and packet sizes
from 1e-3 to 1e300 (eV, nm) by decade, at k-scale 1 and sqrt(2), run
in-process through ``escatter.cli.main``.

Per command it prints how many rows came out ``ok``, how many failed
with escatter's own message, and how many failed with Python's or
numpy's text: a status that begins with one of ``FOREIGN_TEXT`` (the
bare exception text, with no escatter message around it), or a row of a
call that raised out of ``main`` (a traceback) or during which a warning
(numpy's ``RuntimeWarning``) was issued.  ``FOREIGN_TEXT`` is a list of
known texts, so under the counts every distinct failure message is
listed with its numbers blanked to ``#``, the own ones as well as the
foreign ones, for a reader to check the split.  No ``ok`` count may drop
from one version of the package to the next.

Not collected by pytest (the file name does not start with ``test_``);
``test_domain_slice.py`` runs a coarse slice of it in the suite.  Run
from the repository root:

    python tests/domain_scan.py

It takes about 30 min on one core of a 2-CPU x86-64 host, half of it in
postselect-range.  The package comes from ``PYTHONPATH`` when that holds
one, else from this checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import re
import sys
import time
import warnings
from collections import Counter

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from escatter.cli import main  # noqa: E402

#: how Python's and numpy's own messages begin; escatter's begin with the
#: quantity they name
FOREIGN_TEXT = ("float division", "division by zero", "math domain error",
                "math range error", "cannot convert", "(34,", "int too large",
                "overflow encountered", "invalid value encountered",
                "intermediate overflow", "Singular matrix",
                "must not contain infs")

#: a number in a status, blanked so that messages differing only in their
#: numbers list as one
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\b(?:inf|nan)\b")

#: (label, command, flags per call).  postselect-range takes one energy a
#: call, and so does vn-compare, the one command that imports numpy, so
#: that a warning is pinned on its row; every other command takes the
#: whole energy list in one call.
SCANS = (
    ("spinless-sweep spinless", "spinless-sweep", ["--channel", "spinless"]),
    ("spinless-sweep parallel", "spinless-sweep", ["--channel", "parallel"]),
    ("spinless-sweep antiparallel", "spinless-sweep",
     ["--channel", "antiparallel"]),
    ("sphere-sweep spinless", "sphere-sweep", ["--channel", "spinless"]),
    ("sphere-sweep parallel", "sphere-sweep", ["--channel", "parallel"]),
    ("sphere-sweep antiparallel", "sphere-sweep",
     ["--channel", "antiparallel"]),
    ("spin-sweep", "spin-sweep", []),
    ("postselect-range", "postselect-range", ["--theta-r", "0.01,1.5"]),
    ("vn-compare n=16", "vn-compare", ["--n-grid", "16"]),
)

K_SCALES = ("1", repr(math.sqrt(2.0)))


def _call(argv: list[str]) -> tuple[list[dict], bool]:
    """JSON rows of one ``main`` call, and whether it went wrong outside
    the rows: it raised, or issued a warning.  A call that raised or
    exited 2 gives one row, with only a status."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv + ["--format", "json", "--threads", "1"])
        except Exception as exc:  # a traceback: Python's text by definition
            return [{"status": f"raised {type(exc).__name__}: {exc}"}], True
    if code == 2:
        return [{"status": f"exit 2: {err.getvalue().strip()}"}], False
    return json.loads(out.getvalue()), bool(caught)


def _calls(command: str, flags: list[str], k_scales: tuple[str, ...],
           decades: list[str]):
    """argv of every call that scans ``command`` over each packet size
    and energy in ``decades`` at each k-scale."""
    for k_scale in k_scales:
        for packet in decades:
            base = [command, *flags, "--packet-nm", packet, "--k-scale", k_scale]
            if command in ("postselect-range", "vn-compare"):
                yield from ([*base, "--energy-ev", e] for e in decades)
            else:
                yield [*base, "--energy-list", ",".join(decades)]


def scan() -> None:
    decades = [f"1e{p}" for p in range(-3, 301)]
    foreign = tuple("error: " + text for text in FOREIGN_TEXT)
    for label, command, flags in SCANS:
        start = time.perf_counter()
        counts: Counter = Counter()
        messages = {"own": Counter(), "foreign": Counter()}
        for argv in _calls(command, flags, K_SCALES, decades):
            rows, broke = _call(argv)
            for status in (row["status"] for row in rows):
                if status == "ok":
                    counts["ok"] += 1
                    continue
                kind = "foreign" if broke or status.startswith(foreign) else "own"
                counts[kind] += 1
                messages[kind][_NUMBER.sub("#", status)] += 1
        print(f"{label:30s} ok {counts['ok']:7d}  own {counts['own']:7d}  "
              f"foreign {counts['foreign']:7d}  "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        for kind in ("foreign", "own"):
            for status, n in sorted(messages[kind].items()):
                print(f"    {kind:7s} {n:6d} x {status}", flush=True)
    rows, broke = _call(["equator", "--n-cells", "1,2,3140,1000000000"])
    statuses = [row["status"] for row in rows]
    print(f"{'equator':30s} ok {statuses.count('ok'):7d}  "
          f"failed {len(statuses) - statuses.count('ok'):7d}  "
          f"broke {broke}", flush=True)


if __name__ == "__main__":
    scan()
