"""Correctness check of one CLI table against the committed reference.

A row fails when the command exited non-zero, the header's config hash
differs from the one recomputed from the command line, the columns or row
order differ, the status is not ``ok``, a value leaves the tolerance the
test suite applies to that quantity, or an entropy leaves
0 <= S <= log2(#outcomes).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CELL_COLUMNS, COLUMNS, Command

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Absolute tolerance per quantity, as the test suite applies it: streamed
#: ring sums agree with materialized sums to 1e-10 (tests/test_entropy.py),
#: sphere sums to 1e-9, and vn-compare's eigenbasis columns to 1e-4
#: (tests/test_cli.py::test_vn_compare_row).  Columns not listed must
#: match exactly.
TOLERANCE = {
    "S_bits": 1e-10,
    "S_par": 1e-10,
    "S_ap": 1e-10,
    "S_par_modified": 1e-10,
    "S_ap_modified": 1e-10,
    "S_spinless": 1e-10,
    "delta_S": 1e-10,
    "S_shannon_ring": 1e-10,
    "S_vn": 1e-4,
    "abs_diff": 1e-4,
}
SPHERE_TOLERANCE = 1e-9


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tolerance(command: str, column: str) -> float | None:
    if command == "sphere-sweep" and column == "S_bits":
        return SPHERE_TOLERANCE
    return TOLERANCE.get(column)


def _print_slack(text: str) -> float:
    """One unit in the 12th significant digit of a printed value: two
    roundings of values closer than the tolerance can differ by that."""
    value = abs(float(text))
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(value)) - 11)


def entropy_bounds(command: str, row: dict) -> dict[str, float]:
    """Upper bound log2(#outcomes) for each entropy column of a row."""
    if command == "spinless-sweep":
        n = int(row["n_cells"])
        return {"S_bits": math.log2(n)}
    if command == "sphere-sweep":
        return {"S_bits": math.log2(int(row["pixel_count"]))}
    if command == "spin-sweep":
        n = int(row["n_cells"])  # S carries the exchange bit: 2n outcomes
        return {"S_par": math.log2(2 * n), "S_ap": math.log2(4 * n),
                "S_par_modified": math.log2(n), "S_ap_modified": math.log2(2 * n)}
    if command == "vn-compare":
        n = int(row["n_grid"])
        return {"S_shannon_ring": math.log2(n), "S_vn": math.log2(n)}
    if command == "postselect-range":
        n = int(row["n_cells"])
        return {"S_spinless": math.log2(n), "S_par": math.log2(n),
                "S_ap": math.log2(2 * n)}
    raise KeyError(command)


def parse_table(text: str) -> tuple[str | None, list[str], list[dict]]:
    """Split a CLI CSV table into (config hash, columns, rows)."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# escatter-entropy v"):
        return None, [], []
    _, _, digest = lines[0].partition("config-hash=")
    reader = csv.reader(lines[1:])
    columns = next(reader)
    rows = [dict(zip(columns, cells)) for cells in reader]
    return digest.strip() or None, columns, rows


@dataclass
class TableCheck:
    """Outcome of checking one table: rows attempted, rows failed, why."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    cells: int = 0


def _row_problems(command: str, row: dict, expected: dict) -> list[str]:
    problems = []
    if row.get("status") != "ok":
        problems.append(f"status {row.get('status')!r}")
    for column, want in expected.items():
        got = row.get(column)
        tol = tolerance(command, column)
        if tol is None:
            if got != want:
                problems.append(f"{column}={got!r}, expected {want!r}")
            continue
        try:
            diff = abs(float(got) - float(want))
        except (TypeError, ValueError):
            problems.append(f"{column}={got!r} is not a number")
            continue
        if not diff <= tol + _print_slack(want):
            problems.append(f"{column}={got} differs from {want} by {diff:.3g} "
                            f"(tolerance {tol:g})")
    try:
        for column, bound in entropy_bounds(command, row).items():
            value = float(row[column])
            tol = tolerance(command, column)
            if not -tol <= value <= bound + tol:
                problems.append(f"{column}={value} outside [0, {bound:.6g}]")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"cannot check entropy bounds: {exc!r}")
    return problems


def check_table(command: Command, exit_code: int, text: str,
                reference: dict) -> TableCheck:
    """Check one command's CSV output against the reference rows."""
    keys = command.row_keys()
    result = TableCheck(attempted=len(keys))

    def fail_all(reason: str) -> TableCheck:
        result.failed = result.attempted
        result.problems.append(f"{command.name}: {reason}")
        return result

    if exit_code != 0:
        return fail_all(f"exit code {exit_code}")
    digest, columns, rows = parse_table(text)
    if digest != command.config_hash():
        return fail_all(f"config hash {digest!r}, expected {command.config_hash()!r}")
    if tuple(columns) != COLUMNS[command.name]:
        return fail_all(f"columns {columns!r}")
    if len(rows) != len(keys):
        return fail_all(f"{len(rows)} rows, expected {len(keys)}")
    result.rows = rows
    table_ref = reference[command.name]
    for i, (key, row) in enumerate(zip(keys, rows)):
        expected = table_ref.get(key)
        if expected is None:
            problems = [f"no reference row for {key!r}"]
        else:
            problems = _row_problems(command.name, row, expected)
        if problems:
            result.failed += 1
            result.problems.append(f"{command.name} row {i} ({key}): "
                                   + "; ".join(problems))
        for column in CELL_COLUMNS:
            if column in row and row[column].isdigit():
                result.cells += int(row[column])
    return result
