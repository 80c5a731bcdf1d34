import csv
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import pytest

from escatter.cli import (
    ConfigError,
    RunConfig,
    _make_parser,
    build_config,
    main,
    parse_config_file,
    render_csv,
    render_json,
    run,
    write_atomic,
)

SQRT2 = repr(math.sqrt(2.0))


def _cfg_from(argv):
    return build_config(_make_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "energy_ev = 7.5   # trailing comment\n"
        "k-scale = 2.0\n"
        "\n"
        "format = json\n")
    values = parse_config_file(str(path))
    assert values == {"energy_ev": "7.5", "k_scale": "2.0", "format": "json"}


def test_parse_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("energy_ev = 5\nwavelength = 3\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:2: unknown key"):
        parse_config_file(str(bad_key))

    no_eq = tmp_path / "b.cfg"
    no_eq.write_text("just some words\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:1: expected 'key = value'"):
        parse_config_file(str(no_eq))

    empty = tmp_path / "c.cfg"
    empty.write_text("energy_ev =\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1: empty value"):
        parse_config_file(str(empty))

    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_flag_beats_file_beats_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("energy_ev = 7.5\npacket_nm = 25\n")
    cfg = _cfg_from(["spinless-sweep", "--config", str(path),
                     "--energy-ev", "3.0"])
    assert cfg.e_list == [3.0]       # flag wins
    assert cfg.l_nm == 25.0          # file beats default
    assert cfg.k_scale == 1.0        # default survives


def test_energy_flags_conflict():
    with pytest.raises(ConfigError, match="not both"):
        _cfg_from(["spinless-sweep", "--energy-ev", "5",
                   "--energy-list", "1,2"])


def test_validation_errors():
    for argv in (["spinless-sweep", "--energy-ev", "-3"],
                 ["spinless-sweep", "--energy-ev", "0"],
                 ["spinless-sweep", "--packet-nm", "-1"],
                 ["spinless-sweep", "--theta-r", "0"],
                 ["vn-compare", "--n-grid", "1"],
                 ["equator", "--n-cells", "0"]):
        with pytest.raises(ConfigError):
            _cfg_from(argv)


def test_env_threads_fallback(monkeypatch):
    monkeypatch.setenv("ESCATTER_THREADS", "2")
    assert _cfg_from(["equator"]).threads == 2
    monkeypatch.delenv("ESCATTER_THREADS")
    assert _cfg_from(["equator"]).threads == 0
    # explicit flag still wins over the environment
    monkeypatch.setenv("ESCATTER_THREADS", "2")
    assert _cfg_from(["equator", "--threads", "5"]).threads == 5


def test_config_hash_covers_physics_only():
    base = RunConfig(command="equator")
    same = RunConfig(command="equator", threads=8, out="x.csv", format="json")
    other = RunConfig(command="equator", n_cells=[999])
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() != other.config_hash()
    assert len(base.config_hash()) == 12
    int(base.config_hash(), 16)  # valid hex


# ---------------------------------------------------------------------------
# rendering and atomic writes
# ---------------------------------------------------------------------------

def test_render_csv_shape():
    cfg = RunConfig(command="equator")
    text = render_csv(cfg, ["a", "b", "flag"],
                      [{"a": 1.0 / 3.0, "b": 7, "flag": True},
                       {"a": math.nan, "b": 0, "flag": False}])
    lines = text.splitlines()
    assert lines[0].startswith("# escatter-entropy v")
    assert f"config-hash={cfg.config_hash()}" in lines[0]
    assert lines[1] == "a,b,flag"
    assert lines[2] == "0.333333333333,7,true"
    assert lines[3] == "nan,0,false"
    assert text.endswith("\n")


def test_render_json_nan_null_sorted():
    cfg = RunConfig(command="equator")
    text = render_json(cfg, ["b", "a"], [{"a": math.nan, "b": 1.5}])
    payload = json.loads(text)
    assert payload == [{"a": None, "b": 1.5}]
    assert text.index('"a"') < text.index('"b"')  # keys sorted


def test_write_atomic_success_and_failure(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"

    # replacing a directory fails after the temp file was written; the
    # temp file must be cleaned up and the target left alone
    blocked = tmp_path / "adir"
    blocked.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(blocked), "clobber\n")
    assert blocked.is_dir()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".escatter-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# end-to-end runs (in process)
# ---------------------------------------------------------------------------

def test_equator_to_stdout(capsys):
    assert main(["equator", "--n-cells", "8"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[1] == ("n_cells,S_par,S_ap,S_par_modified,S_ap_modified,"
                        "delta_S,status")
    assert lines[2] == "8,4,5,3,4,1,ok"


def test_out_file_with_summaries(tmp_path, capsys):
    target = tmp_path / "eq.csv"
    assert main(["equator", "--n-cells", "4,16", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert "row 0: n_cells=4" in out
    assert f"wrote 2 rows to {target}" in out
    body = target.read_text().splitlines()
    assert body[2].startswith("4,3,4,2,3,1,ok")
    assert body[3].startswith("16,5,6,4,5,1,ok")


def test_bad_config_exit_2(capsys):
    assert main(["spinless-sweep", "--energy-ev", "-3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "positive" in err


def test_sphere_geometry_needs_sphere_command(capsys):
    assert main(["spinless-sweep", "--geometry", "sphere"]) == 2
    assert "sphere-sweep" in capsys.readouterr().err


def test_meridian_geometry_matches_rings(capsys):
    # meridian is an alias of rings: the config hash in the first line
    # covers the geometry name, every line after it must match
    argv = ["spinless-sweep", "--energy-list", "1,5", "--packet-nm", "50",
            "--k-scale", SQRT2, "--geometry"]
    tables = []
    for geometry in ("rings", "meridian"):
        assert main(argv + [geometry]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    assert tables[1][1:] == tables[0][1:]


@pytest.mark.parametrize("command", ["spinless-sweep", "sphere-sweep"])
def test_distinguishable_alias_matches_spinless(command, capsys):
    # a spin-filtered pair is the spinless channel: only the config hash
    # in the first line, which covers the channel name, may differ
    argv = [command, "--energy-list", "1,5", "--packet-nm", "50",
            "--k-scale", SQRT2, "--channel"]
    tables = []
    for channel in ("spinless", "distinguishable"):
        assert main(argv + [channel]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    assert tables[1][1:] == tables[0][1:]
    assert tables[1][0] != tables[0][0]


def test_row_failure_exit_3_partial_table(tmp_path, capsys):
    target = tmp_path / "post.csv"
    code = main(["postselect-range", "--energy-ev", "5",
                 "--k-scale", SQRT2,
                 "--theta-r", "0.1,1.5707", "--out", str(target)])
    assert code == 3
    captured = capsys.readouterr()
    assert "row 1 failed" in captured.err
    lines = target.read_text().splitlines()
    header, ok_row, bad_row = csv.reader(lines[1:4])
    assert header == ["E_ev", "theta_r", "n_cells", "S_spinless", "S_par",
                      "S_ap", "delta_S", "zero_weight", "status"]
    assert ok_row[-1] == "ok"
    # the error text contains a comma and must arrive quoted, as one cell
    assert len(bad_row) == len(header)
    assert bad_row[-1].startswith("error:")
    assert bad_row[3] == "nan"


def test_spinless_sweep_values(capsys):
    assert main(["spinless-sweep", "--energy-ev", "1", "--packet-nm", "50",
                 "--k-scale", SQRT2]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert int(row[1]) == 391
    assert float(row[2]) == pytest.approx(3.5516, abs=2e-3)
    assert row[3] == "ok"


def test_spin_sweep_modified_columns(capsys):
    assert main(["spin-sweep", "--energy-ev", "100", "--packet-nm", "50",
                 "--k-scale", SQRT2]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    s_par, s_ap = float(row[2]), float(row[3])
    s_par_mod, s_ap_mod = float(row[4]), float(row[5])
    # the table carries 12 significant digits, so compare at that level
    assert s_par == pytest.approx(1.0 + s_par_mod, abs=1e-10)
    assert s_ap == pytest.approx(1.0 + s_ap_mod, abs=1e-10)
    assert s_ap > s_par


def test_vn_compare_row(capsys):
    assert main(["vn-compare", "--energy-ev", "5", "--k-scale", SQRT2]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert int(row[1]) == 512
    assert float(row[2]) == pytest.approx(0.950480, abs=1e-4)
    assert float(row[3]) == pytest.approx(1.096813, abs=1e-4)
    assert float(row[4]) == pytest.approx(0.146334, abs=1e-4)


def test_json_format(capsys):
    assert main(["equator", "--n-cells", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["n_cells"] == 8
    assert payload[0]["S_par"] == 4.0


def test_thread_count_does_not_change_bytes(tmp_path):
    argv = ["spinless-sweep", "--energy-list", "1,5,25,100",
            "--packet-nm", "50", "--k-scale", SQRT2]
    a = tmp_path / "t1.csv"
    b = tmp_path / "t8.csv"
    assert main(argv + ["--threads", "1", "--out", str(a)]) == 0
    assert main(argv + ["--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _console_script(name: str) -> tuple[list[str], dict | None]:
    """Command and environment that run the console script ``name``.

    Without an installed entry point on PATH, the ``[project.scripts]``
    target is read from pyproject.toml and run with src/ importable.
    """
    if shutil.which(name):
        return [name], None
    root = pathlib.Path(__file__).resolve().parents[1]
    toml = (root / "pyproject.toml").read_text()
    scripts = toml.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, func = re.search(rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"',
                             scripts, re.M).groups()
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], dict(os.environ, PYTHONPATH=pythonpath)


def test_console_script():
    command, env = _console_script("escatter-entropy")
    proc = subprocess.run(command + ["equator", "--n-cells", "4"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# escatter-entropy v")
    assert lines[2] == "4,3,4,2,3,1,ok"


@pytest.mark.parametrize("command", ["spinless-sweep", "vn-compare"])
def test_empty_domain_row_fails_without_warning(command):
    # 2 E b_bar < 1: the cutoff angle is above pi/2 and no angle is
    # accessible; the row fails with a message naming both, and nothing
    # else (no numpy warning) reaches stderr
    root = pathlib.Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", command, "--energy-ev", "0.0001",
         "--packet-nm", "0.01", "--threads", "1"],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"[{command}] row 0 failed: error: cutoff angle epsilon = 3.14159 rad "
        "is not below pi/2 = 1.5708 rad: no scattering angle is accessible "
        "(2 E b_bar < 1)"]


@pytest.mark.parametrize("e_ev", ["1e18", "1e25"])
def test_parallel_channel_at_extreme_energy_fails_cleanly(e_ev):
    # from about 1e18 eV at 1 um, y = -2 sin(mid) sin(hw) / (...) of the
    # first parallel cell rounds to -1: the row fails naming the channel
    # and the angle, and that line is all of stderr (no arctanh warning,
    # no bare "math domain error")
    root = pathlib.Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", "spin-sweep", "--energy-ev", e_ev,
         "--packet-nm", "1000", "--k-scale", SQRT2, "--threads", "1"],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"\[spin-sweep\] row 0 failed: error: non-finite cell "
                        r"weight in the parallel channel at theta = "
                        r"\d\.\d+e-\d+", line), line


def test_meridian_grid_below_cutoff_exit_3(capsys):
    # epsilon = 0.402: the first midpoint of a 512-point theta grid maps
    # to q = 2K sin(theta_0/2), below the kernel's cutoff K epsilon
    assert main(["vn-compare", "--energy-ev", "0.5", "--packet-nm", "10",
                 "--n-grid", "512", "--k-scale", SQRT2]) == 3
    err = capsys.readouterr().err
    assert "first meridian grid point q = " in err
    assert "K*epsilon = " in err and "epsilon = 0.4017" in err


# ---------------------------------------------------------------------------
# one failure rule for every table
# ---------------------------------------------------------------------------

#: Per command: flags giving three rows of which the middle one fails, and
#: the input columns that row must echo (0.001 eV at 100 nm has no
#: accessible angle; 1.5707 rad is wider than pi/2 - cutoff).
_FAILING_MIDDLE_ROW = {
    "spinless-sweep": (["--energy-list", "5,0.001,10"], {"E_ev": 0.001}),
    "sphere-sweep": (["--energy-list", "5,0.001,10"], {"E_ev": 0.001}),
    "spin-sweep": (["--energy-list", "5,0.001,10"], {"E_ev": 0.001}),
    "vn-compare": (["--energy-list", "5,0.001,10", "--n-grid", "64"],
                   {"E_ev": 0.001, "n_grid": 64}),
    "postselect-range": (["--energy-ev", "5", "--theta-r", "0.1,1.5707,0.5"],
                         {"E_ev": 5.0, "theta_r": 1.5707}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_FAILING_MIDDLE_ROW))
def test_failed_row_rule(command, fmt, capsys):
    flags, echoed = _FAILING_MIDDLE_ROW[command]
    assert main([command, "--packet-nm", "100", "--k-scale", SQRT2,
                 "--threads", "1", "--format", fmt, *flags]) == 3
    captured = capsys.readouterr()
    assert "None" not in captured.out + captured.err
    assert captured.err.startswith(f"[{command}] row 1 failed: error: ")
    if fmt == "json":
        rows = json.loads(captured.out)
        missing = None
    else:
        rows = list(csv.DictReader(captured.out.splitlines()[1:]))
        missing = "nan"
        echoed = {col: format(v, ".12g") if isinstance(v, float) else str(v)
                  for col, v in echoed.items()}
    assert [row["status"] == "ok" for row in rows] == [True, False, True]
    bad = rows[1]
    assert bad["status"].startswith("error: ")
    assert {col: bad[col] for col in echoed} == echoed
    computed = set(bad) - set(echoed) - {"status"}
    assert computed and all(bad[col] == missing for col in computed)
    assert all(rows[i][col] != missing for i in (0, 2) for col in computed)


@pytest.mark.parametrize("argv", [
    ["spinless-sweep", "--energy-ev", "1e160"],
    ["sphere-sweep", "--energy-ev", "1e160"],
    ["spin-sweep", "--energy-ev", "1e160"],
    ["postselect-range", "--energy-ev", "1e160", "--theta-r", "0.1"],
    ["sphere-sweep", "--energy-ev", "5", "--packet-nm", "1e300"],
], ids=["spinless-overflow", "sphere-overflow", "spin-overflow",
        "postselect-overflow", "sphere-zero-division"])
def test_arithmetic_error_fails_the_row(argv, capsys):
    # at 1e160 eV K^4 overflows and epsilon is lost against delta_theta,
    # which the context refuses up front, naming the energy; a 1e300 nm
    # packet's pixel side squares to zero in the pixel count: an
    # ArithmeticError fails the row like any other error, no traceback.
    # Either way the row's one line is all that reaches stderr: no numpy
    # warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--threads", "1", "--format", "json"]) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.startswith(f"[{argv[0]}] row 0 failed: error: ")
    assert captured.err.count("\n") == 1
    if "1e160" in argv:
        assert "e_ev = 1e+160 is out of range" in captured.err
    [row] = json.loads(captured.out)
    assert row["status"].startswith("error: ")


@pytest.mark.parametrize("argv, flag", [
    (["postselect-range", "--energy-list", "5,20"], "--energy-list"),
    (["spinless-sweep", "--geometry", "equator", "--n-cells", "4,10"],
     "--n-cells"),
], ids=["postselect-energy-list", "equator-n-cells"])
def test_unused_extra_values_exit_2(argv, flag, capsys):
    # both commands read a single value of the flag; extra values used to
    # be dropped without a word
    with pytest.raises(ConfigError, match=flag):
        _cfg_from(argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_help_lists_every_table():
    # argparse wraps the epilog, also inside hyphenated command names
    text = "".join(_make_parser().format_help().split())
    assert "sphere-sweep->E_ev,n_rings,pixel_count,S_bits,status" in text
    assert "vn-compare->E_ev,n_grid,S_shannon_ring,S_vn,abs_diff,status" in text
    assert ("postselect-range->E_ev,theta_r,n_cells,S_spinless,S_par,S_ap,"
            "delta_S,zero_weight,status") in text
    assert "nan(JSONnull)ineverycomputedcolumn" in text
    assert "distinguishableisanaliasofspinless" in text
