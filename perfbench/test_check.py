"""Self-test of the benchmark: the reference tables pass the correctness
check, each kind of broken table is counted as failed rows (and so in
fail_frac), and BENCHMARK.json names exactly the metrics the runner
prints.  Starts no CLI process.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import run
from check import TOLERANCE, check_table, load_reference, tolerance
from workloads import COLUMNS, WORKLOADS, Command, Plan

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = load_reference()
SEED = 7
COMMANDS = [c for w in WORKLOADS for c in Plan(w, SEED).next_pass()]


def render(command, rows, digest=None) -> str:
    """A table as the CLI prints it."""
    columns = COLUMNS[command.name]
    lines = [f"# escatter-entropy v0.1.0, config-hash={digest or command.config_hash()}",
             ",".join(columns)]
    lines += [",".join(row[c] for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def reference_rows(command) -> list[dict]:
    return [dict(REFERENCE[command.name][key]) for key in command.row_keys()]


def first_entropy_column(command) -> str:
    return next(c for c in COLUMNS[command.name] if c in TOLERANCE)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
def test_reference_table_passes(command):
    result = check_table(command, 0, render(command, reference_rows(command)),
                         REFERENCE)
    assert result.attempted == len(command.row_keys())
    assert result.failed == 0, result.problems


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
def test_value_within_tolerance_passes(command):
    rows = reference_rows(command)
    column = first_entropy_column(command)
    rows[0][column] = repr(float(rows[0][column]) + 0.5 * TOLERANCE[column])
    assert check_table(command, 0, render(command, rows), REFERENCE).failed == 0


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
def test_perturbed_value_fails_its_row(command):
    rows = reference_rows(command)
    column = first_entropy_column(command)
    rows[-1][column] = repr(float(rows[-1][column])
                            + 3.0 * tolerance(command.name, column))
    result = check_table(command, 0, render(command, rows), REFERENCE)
    assert result.failed == 1
    assert column in result.problems[0]


def test_bad_status_fails_its_row():
    command = COMMANDS[0]
    rows = reference_rows(command)
    rows[0]["status"] = "error: non-finite integral"
    assert check_table(command, 0, render(command, rows), REFERENCE).failed == 1


def test_swapped_rows_fail():
    command = COMMANDS[0]
    rows = reference_rows(command)
    rows[0], rows[1] = rows[1], rows[0]
    assert check_table(command, 0, render(command, rows), REFERENCE).failed == 2


@pytest.mark.parametrize("exit_code, digest", [(3, None), (0, "000000000000")])
def test_exit_code_and_hash_fail_every_row(exit_code, digest):
    command = COMMANDS[0]
    text = render(command, reference_rows(command), digest)
    result = check_table(command, exit_code, text, REFERENCE)
    assert result.failed == result.attempted == len(command.row_keys())


def test_entropy_above_log2_outcomes_fails():
    # a reference that itself breaks the bound must not pass either
    command = next(c for c in COMMANDS if c.name == "spinless-sweep")
    rows = reference_rows(command)
    rows[0]["n_cells"] = "2"
    reference = json.loads(json.dumps(REFERENCE))
    reference[command.name][command.row_keys()[0]]["n_cells"] = "2"
    result = check_table(command, 0, render(command, rows), reference)
    assert result.failed == 1
    assert "outside" in result.problems[0]


def test_perturbed_table_counts_in_fail_frac(monkeypatch):
    workload = "postselect-band"
    (command,) = Plan(workload, SEED).next_pass()
    rows = reference_rows(command)
    rows[3]["S_ap"] = repr(float(rows[3]["S_ap"]) + 1e-6)

    def fake_cli(argv, env):
        assert argv == command.argv()
        return run.CliRun(0, render(command, rows), "", 1.0, 100.0)

    monkeypatch.setattr(run, "run_cli", fake_cli)
    monkeypatch.setattr(run, "measure_setup", lambda env, samples: ([0.5] * samples, []))
    result = run.measure(workload, SEED, 0.0, {}, REFERENCE)
    assert (result.failed, result.attempted) == (1, 12)
    assert any(re.match(r"fail_frac +0\.0833 ", line) for line in result.summary)


def test_replay_mismatch_is_counted():
    command = COMMANDS[0]
    text = render(command, reference_rows(command))
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].replace(",ok", "x,ok")
    cli_run = run.CliRun(0, text, "", 1.0, 100.0)
    failed, problems = run._compare_replay([command], [cli_run], [(0, "".join(lines))])
    assert failed == 1 and "row 1" in problems[0]
    failed, _ = run._compare_replay([command], [cli_run], [(3, text)])
    assert failed == len(command.row_keys())


def test_traced_replay_matches_cli_and_counts_kernel_calls():
    # small grids, so that the traced replay takes well under a second
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from escatter import cli, density_matrix

    commands = [Command("vn-compare", 100.0, (5.0, 20.0), n_grid=24),
                Command("postselect-range", 100.0, (5.0,), theta_r=(0.2, 1.0))]
    plain = tracing.replay("small", commands)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = tracing.replay("small", commands, tracer)
    assert density_matrix.kernel_element.__name__ == "kernel_element"
    assert cli.build_meridian_matrix is density_matrix.build_meridian_matrix
    assert traced == plain and all(code == 0 for code, _ in traced)

    rows = [s for s in tracer.spans if s["name"] == "cli.row"]
    commands_by_id = {s["id"]: s for s in tracer.spans if s["name"] == "cli.command"}
    assert sorted(s["row_id"] for s in rows) == [
        "small:postselect-range:0", "small:postselect-range:1",
        "small:vn-compare:0", "small:vn-compare:1"]
    assert all(commands_by_id[s["parent"]]["command"] in s["row_id"] for s in rows)

    layers = tracing.layer_metrics(tracer.spans)
    # each vn-compare row reduces its n_grid ring cells once, each
    # postselect-range row its n_cells three times (one per channel)
    postselect = [line.split(",") for line in traced[1][1].splitlines()[2:]]
    assert layers["geometry.cells"] == 2 * 24 + 3 * sum(int(r[2]) for r in postselect)
    # every off-diagonal kernel call fills two matrix elements
    assert layers["density_matrix.nnz"] == 2 * layers["density_matrix.kernel_calls"] - 2 * 24
    assert layers["density_matrix.eigen_s"] > 0.0
    assert layers["spin.postselect_row_max_s"] > 0.0


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
