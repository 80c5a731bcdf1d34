import csv
import errno
import gc
import json
import math
import os
import pathlib
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from fractions import Fraction

import pytest

from escatter import SpinChannel, cli, make_context, ring_grid
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


def test_config_value_may_hold_a_hash(tmp_path, capsys):
    # '#' starts a comment only at the start of a line or after
    # whitespace: the path keeps its '#', the spaced trailing note goes
    out = tmp_path / "run#1.csv"
    path = tmp_path / "run.cfg"
    path.write_text(f"out = {out}\n"
                    "n_grid = 512  # note\n"
                    "energy_ev = 5\t# tab before the note\n"
                    "  # indented comment line\n")
    assert parse_config_file(str(path)) == {
        "out": str(out), "n_grid": "512", "energy_ev": "5"}
    assert main(["spinless-sweep", "--config", str(path),
                 "--k-scale", SQRT2, "--threads", "1"]) == 0
    assert out.read_text().count("\n") > 1
    assert not (tmp_path / "run").exists()
    assert f"wrote 1 rows to {out}\n" in capsys.readouterr().out


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


def test_flag_energies_replace_file_energies(tmp_path):
    # either energy flag replaces the file's energies, whichever key the
    # file used
    path = tmp_path / "run.cfg"
    path.write_text("energy_list = 1,2\n")
    assert _cfg_from(["spinless-sweep", "--config", str(path),
                      "--energy-ev", "3"]).e_list == [3.0]
    path.write_text("energy_ev = 7.5\n")
    assert _cfg_from(["spinless-sweep", "--config", str(path),
                      "--energy-list", "1,2"]).e_list == [1.0, 2.0]


def test_file_with_both_energy_keys_exit_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("energy_ev = 3\nenergy_list = 1,2\n")
    argv = ["spinless-sweep", "--config", str(path)]
    with pytest.raises(ConfigError, match="give either --energy-ev or "
                                          "--energy-list, not both"):
        _cfg_from(argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


def test_unparsable_value_names_its_flag(monkeypatch):
    with pytest.raises(ConfigError, match="--packet-nm: could not convert"):
        _cfg_from(["spinless-sweep", "--packet-nm", "abc"])
    with pytest.raises(ConfigError, match="--n-cells: invalid literal for int"):
        _cfg_from(["equator", "--n-cells", "4,x"])
    monkeypatch.setenv("ESCATTER_THREADS", "many")
    with pytest.raises(ConfigError, match="--threads: invalid literal for int"):
        _cfg_from(["equator"])


def test_n_grid_above_the_cap_is_a_configuration_error(capsys):
    # rejected before any row runs: exit 2, no table and no numpy import
    code = ("import sys; from escatter.cli import main; "
            "code = main(['vn-compare', '--n-grid', '5000']); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: n-grid 5000 exceeds the dense-diagonalization cap 4096",
        "False"]
    assert _cfg_from(["vn-compare", "--n-grid", "4096"]).n_grid == 4096
    # only vn-compare builds a matrix: the other tables ignore the cap
    assert _cfg_from(["spinless-sweep", "--n-grid", "5000"]).n_grid == 5000
    # the cap is no setting
    with pytest.raises(SystemExit) as exc:
        main(["vn-compare", "--grid-cap", "8192"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-cap 8192" in capsys.readouterr().err


#: Two values per option key, each valid for spin-sweep and neither the
#: first the default; a new ``cli._OPTIONS`` row needs its pair here.
_SAMPLES = {
    "energy_ev": ("7.5", "2.25"),
    "energy_list": ("1,2", "3.5"),
    "packet_nm": ("25", "50.5"),
    "k_scale": (SQRT2, "2"),
    "n_grid": ("64", "128"),
    "n_cells": ("100,1000", "628"),
    "channel": ("parallel", "antiparallel"),
    "theta_r": ("0.1,0.5", "1.2"),
    "out": ("a.csv", "b.json"),
    "format": ("json", "csv"),
    "threads": ("3", "5"),
}


@pytest.mark.parametrize("opt", cli._OPTIONS, ids=lambda opt: opt.key)
def test_every_option_through_every_source(opt, tmp_path, monkeypatch):
    monkeypatch.delenv("ESCATTER_THREADS", raising=False)
    a, b = _SAMPLES[opt.key]
    flag = "--" + opt.key.replace("_", "-")
    path = tmp_path / "run.cfg"

    def cfg(flags=(), file=None):
        argv = ["spin-sweep", *flags]
        if file is not None:
            path.write_text(f"{opt.key} = {file}\n")
            argv += ["--config", str(path)]
        return _cfg_from(argv)

    by_flag = cfg([flag, a])
    assert by_flag != cfg()
    assert cfg(file=a) == by_flag                  # flag and file agree
    assert cfg([flag, b], file=a) == cfg([flag, b]) != by_flag  # flag wins
    if opt.key == "threads":
        monkeypatch.setenv("ESCATTER_THREADS", b)
        assert cfg() == cfg([flag, b])             # env beats the default
        assert cfg(file=a) == by_flag              # the file beats env
        assert cfg([flag, a]) == by_flag


@pytest.mark.parametrize("argv, digest", [
    (["equator", "--n-cells", "100,1000"], "dad7110d916e"),
    (["spinless-sweep", "--n-cells", "628"], "96f70a3fbca4"),
    (["postselect-range", "--energy-ev", "5", "--theta-r", "0.1,0.5,1.2"],
     "662dcb557768"),
    (["spinless-sweep", "--energy-list", "5,20"], "d05edb778353"),
    (["vn-compare", "--n-grid", "256"], "b50240988497"),
    (["spinless-sweep", "--channel", "parallel"], "3d34853d1fb6"),
    (["sphere-sweep", "--channel", "antiparallel", "--packet-nm", "50000"],
     "177cb51ef893"),
    (["spin-sweep"], "4e06c39cf52e"),
    (["equator"], "c0530805ce85"),
], ids=["n-cells", "ring-n-cells", "theta-r", "energy-list", "grid-cap",
        "parallel", "antiparallel", "distinguishable", "defaults"])
def test_config_hash_is_pinned(argv, digest):
    # hashes the golden tables never vary; the benchmark recomputes the
    # hash on its own, so a change here fails every benchmark row.  The
    # grid-cap and distinguishable cases ran with the retired --grid-cap
    # and --channel distinguishable; they pin what is left of their argv
    assert _cfg_from(argv).config_hash() == digest
    # a float setting given as an int hashes as the float would
    assert RunConfig(command="equator", l_nm=25, k_scale=2, e_list=[5, 7.5],
                     theta_r=[1]).config_hash() == "d7d8eadc03f3"


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


def test_run_config_keywords_defaults_and_fields():
    cfg = RunConfig(command="spin-sweep", e_list=[1.0, 2.0], threads=2)
    assert (cfg.command, cfg.e_list, cfg.threads) == ("spin-sweep", [1.0, 2.0], 2)
    assert (cfg.l_nm, cfg.k_scale, cfg.n_cells, cfg.out) == (100.0, 1.0, (3140,), None)
    a, b = RunConfig(command="equator"), RunConfig(command="equator")
    assert a == b and a.theta_r == cli._DEFAULT_THETA_R
    assert (a.e_list, a.n_cells) == ((5.0,), (3140,))  # immutable defaults
    assert repr(b).startswith("RunConfig(command='equator', e_list=(5.0,), ")
    with pytest.raises(AttributeError):
        a.thread = 3  # no such field
    with pytest.raises(AttributeError):
        a.threads = 3  # a built config is not reassigned: _replace copies it
    assert a._replace(threads=3).threads == 3 and a.threads == 0


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


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_write_atomic_gives_the_mode_open_gives(tmp_path, umask):
    # mkstemp's temp file is 0o600, which the rename used to hand on to
    # the table; it now gets 0o666 less the umask, like a plain open, and
    # the umask is left as it was
    before = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "atomic.csv"), "x\n")
        (tmp_path / "plain.csv").write_text("x\n")
        assert os.umask(umask) == umask
    finally:
        os.umask(before)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("atomic.csv", "plain.csv")}
    assert modes == {0o666 & ~umask}


def test_write_atomic_leaves_the_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, process-wide: a file another
    # thread created in that window got no umask at all
    def no_umask(mask):
        raise AssertionError("write_atomic set the process umask")

    monkeypatch.setattr(os, "umask", no_umask)
    target = tmp_path / "out.csv"
    write_atomic(str(target), "a,b\n1,2\n")
    assert target.read_bytes() == b"a,b\n1,2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_cli_import_loads_neither_importlib_nor_numpy():
    # vn-compare loads escatter.density_matrix with a plain relative
    # import: a python -S start needs importlib for nothing else
    code = ("import sys, escatter.cli; "
            "print(sorted({'importlib', 'numpy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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


@pytest.mark.parametrize("where", ["missing-directory", "directory-target",
                                   "full-disk"])
def test_out_that_cannot_be_written_exits_2(where, tmp_path, capsys, monkeypatch):
    # the first two ended in a traceback (FileNotFoundError from mkstemp,
    # IsADirectoryError from os.replace) after the whole table was
    # computed; the configuration is now refused before any row runs.  A
    # write that fails later (a full disk at the rename) also names the
    # path, and write_atomic removes its temp file.
    rows = []
    equator_entropies = cli.equator_entropies
    monkeypatch.setattr(cli, "equator_entropies",
                        lambda n: rows.append(n) or equator_entropies(n))
    if where == "full-disk":
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
    (tmp_path / "adir").mkdir()
    target = tmp_path / {"missing-directory": "nodir/eq.csv",
                         "directory-target": "adir",
                         "full-disk": "eq.csv"}[where]
    assert main(["equator", "--n-cells", "4,16", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert rows == ([4, 16] if where == "full-disk" else [])
    assert captured.out == ""
    assert captured.err == f"error: cannot write {str(target)!r}: " + (
        "No space left on device\n" if where == "full-disk"
        else "not a file in an existing directory\n")
    assert sorted(os.listdir(tmp_path)) == ["adir"]
    assert os.listdir(tmp_path / "adir") == []


def test_bad_config_exit_2(capsys):
    assert main(["spinless-sweep", "--energy-ev", "-3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "positive" in err


@pytest.mark.parametrize("argv,config,message", [
    (["spinless-sweep", "--energy-list", ","], None, "energy list is empty"),
    (["spinless-sweep", "--k-scale", "-1"], None,
     "k-scale must be positive, got -1.0"),
    # a retired setting's key
    (["vn-compare"], "grid_cap = 4096", "{path}:1: unknown key 'grid_cap'"),
    (["vn-compare", "--n-grid", "5000"], None,
     "n-grid 5000 exceeds the dense-diagonalization cap 4096"),
    (["spinless-sweep", "--threads", "-1"], None,
     "threads must be >= 0, got -1"),
    # the flags' choices refuse these before validate: a config file does not
    (["spinless-sweep"], "channel = up", "unknown channel 'up'"),
    (["spinless-sweep"], "format = xml", "format must be csv or json, got 'xml'"),
], ids=["energy-list", "k-scale", "grid-cap", "n-grid", "threads", "channel",
        "format"])
def test_refused_config_exits_2_with_its_message(argv, config, message,
                                                 tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {message.format(path=tmp_path / 'run.cfg')}\n")


def test_unknown_command_is_refused():
    # the parser admits only COMMANDS; run() still checks a RunConfig
    # built in code
    with pytest.raises(ConfigError, match=r"^unknown command 'bogus'$"):
        run(RunConfig("bogus"))


def test_geometry_is_no_setting(tmp_path, capsys):
    # each table has one command (sphere-sweep, equator): no flag or
    # config key chooses the grid
    with pytest.raises(SystemExit) as exc:
        main(["spinless-sweep", "--geometry", "rings"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --geometry rings" in captured.err
    path = tmp_path / "run.cfg"
    path.write_text("energy_ev = 5\ngeometry = rings\n")
    assert main(["spinless-sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}:2: unknown key 'geometry'\n")


@pytest.mark.parametrize("command", ["spinless-sweep", "sphere-sweep"])
def test_distinguishable_is_no_channel(command, tmp_path, capsys):
    # a spin-filtered pair is the spinless channel, which has one name:
    # "distinguishable" only reprinted its rows under another config hash
    with pytest.raises(SystemExit) as exc:
        main([command, "--channel", "distinguishable"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --channel: invalid choice: 'distinguishable'"
            in captured.err)
    path = tmp_path / "run.cfg"
    path.write_text("channel = distinguishable\n")
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: unknown channel 'distinguishable'\n")


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


def _row_threads(monkeypatch, *names) -> list:
    """Thread ids of the calls the rows make to the ``cli`` functions
    ``names``, one entry per call."""
    seen = []
    for name in names:
        def record(*args, _fn=getattr(cli, name)):
            seen.append(threading.get_ident())
            return _fn(*args)
        monkeypatch.setattr(cli, name, record)
    return seen


#: several rows of every table whose rows hold the GIL
_GIL_BOUND_TABLES = {
    "spinless-sweep": ["spinless-sweep", "--energy-list", "1,100,1e4"],
    "sphere-sweep": ["sphere-sweep", "--energy-list", "1e3,1e4"],
    "spin-sweep": ["spin-sweep", "--energy-list", "1e3,1e4"],
    "postselect-range": ["postselect-range", "--energy-ev", "1e4",
                         "--theta-r", "0.1,0.5"],
    "equator": ["equator", "--n-cells", "4,8,16"],
}


@pytest.mark.parametrize("argv", list(_GIL_BOUND_TABLES.values()),
                         ids=list(_GIL_BOUND_TABLES))
def test_gil_bound_rows_run_on_the_calling_thread(argv, monkeypatch, capsys):
    # pure-Python rows cannot overlap: a pool would only add switching
    seen = _row_threads(monkeypatch, "make_context", "equator_entropies")
    assert main(argv + ["--threads", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(seen) == len(rows) > 1
    assert set(seen) == {threading.get_ident()}


def test_only_vn_compare_rows_release_the_gil():
    assert [name for name, table in cli._TABLES.items()
            if table.releases_gil] == ["vn-compare"]
    with pytest.raises(AttributeError):
        cli._TABLES["vn-compare"].releases_gil = False


def test_vn_compare_rows_fan_out_with_the_same_bytes(tmp_path, monkeypatch):
    argv = ["vn-compare", "--n-grid", "48", "--energy-list", "5,20",
            "--k-scale", SQRT2]
    seen = _row_threads(monkeypatch, "make_context")
    tables = []
    for threads in ("1", "2"):
        seen.clear()
        target = tmp_path / f"t{threads}.csv"
        assert main(argv + ["--threads", threads, "--out", str(target)]) == 0
        tables.append(target.read_bytes())
        on_caller = [ident == threading.get_ident() for ident in seen]
        assert on_caller == [threads == "1"] * 2
    assert tables[0] == tables[1]


def test_row_workers_keep_input_order_and_raise_the_first_failure():
    # two workers share the rows: the slow first row does not hold up the
    # others, each row runs once on a worker, the table keeps input order,
    # and a failure is raised after every row ran, the first in input order
    ran, caller = [], threading.get_ident()

    def square(i):
        ran.append((i, threading.get_ident()))
        time.sleep(0.05 if i == 0 else 0.0)
        return i * i

    assert cli._map_ordered(square, list(range(6)), 2) == [0, 1, 4, 9, 16, 25]
    assert sorted(i for i, _ in ran) == list(range(6))
    assert caller not in {ident for _, ident in ran}

    def fail(i):
        ran.append(i)
        if i in (1, 3):
            raise KeyError(i)
        return i

    ran.clear()
    with pytest.raises(KeyError) as failure:
        cli._map_ordered(fail, list(range(5)), 2)
    assert failure.value.args == (1,) and sorted(ran) == list(range(5))
    # more workers than CPUs, switching as often as the interpreter can:
    # still every row once, none lost or taken twice from the shared indices
    ran.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli._map_ordered(fail, list(range(5, 2005)), 8) == list(range(5, 2005))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(5, 2005))


def test_auto_threads_follow_cpu_affinity(monkeypatch):
    # under `taskset -c 0` on a 2-CPU host: one usable CPU, not two
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._usable_cpus() == 1
    caller = threading.get_ident()
    assert cli._map_ordered(lambda _: threading.get_ident(), [1, 2], 0) == [caller] * 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
    assert cli._usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


#: probe code: ``main(argv)`` writing its table to ``out``, then a line
#: with the BLAS thread variables the run left
_VN_BLAS_PROBE = (
    "import json, os, escatter.cli\n"
    "assert escatter.cli.main({argv!r} + ['--out', {out!r}]) == 0\n"
    "print(json.dumps({{v: os.environ.get(v) "
    "for v in escatter.cli._BLAS_THREAD_VARS}}))")


def _vn_blas_run(argv: list[str], out: pathlib.Path, **blas: str) -> dict:
    """The BLAS variables after ``argv`` runs in a process whose
    environment sets only the BLAS variables ``blas``."""
    env = {k: v for k, v in _src_env().items() if k not in cli._BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", _VN_BLAS_PROBE.format(argv=argv, out=str(out))],
        env={**env, **blas}, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


_VN_SMALL = ["vn-compare", "--n-grid", "48", "--k-scale", SQRT2]


@pytest.mark.parametrize("threads, energies", [("0", "5,20"), ("0", "5")])
def test_vn_compare_runs_one_blas_thread_per_row_worker(tmp_path, threads, energies):
    # one BLAS thread even where one row leaves CPUs spare: the band
    # eigensolve runs fastest on one
    blas = _vn_blas_run(_VN_SMALL + ["--energy-list", energies,
                                      "--threads", threads], tmp_path / "t.csv")
    assert blas == dict.fromkeys(cli._BLAS_THREAD_VARS, "1")


def test_a_users_blas_thread_count_wins(tmp_path):
    blas = _vn_blas_run(_VN_SMALL + ["--energy-list", "5,20"], tmp_path / "t.csv",
                        OMP_NUM_THREADS="3")
    assert blas == {**dict.fromkeys(cli._BLAS_THREAD_VARS), "OMP_NUM_THREADS": "3"}


def test_in_process_vn_compare_leaves_the_environment(tmp_path, monkeypatch):
    # with numpy imported its BLAS has its threads already: the variables
    # would change nothing, so main() leaves the caller's environment alone
    pytest.importorskip("numpy")
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert main(_VN_SMALL + ["--energy-list", "5,20", "--out",
                             str(tmp_path / "t.csv")]) == 0
    assert dict(os.environ) == before


def test_blas_thread_settings_keep_the_vn_compare_bytes(tmp_path):
    # LAPACK's reduction order may follow its thread count: unset (the CLI
    # picks it), one thread and two, each run prints the golden table
    argv = ["vn-compare", "--packet-nm", "100", "--k-scale", SQRT2,
            "--energy-list", "19.6,5.1", "--n-grid", "1024", "--threads", "2"]
    golden = pathlib.Path(__file__).parent / "golden" / "vn-compare-1024.csv"
    for i, blas in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"},
                              {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"t{i}.csv"
        _vn_blas_run(argv, out, **blas)
        assert out.read_bytes() == golden.read_bytes(), blas


def _src_env() -> dict:
    """The environment with src/ importable."""
    root = pathlib.Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath)


def _script_target(name: str) -> tuple[str, str]:
    """Module and function of the ``[project.scripts]`` entry ``name``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    toml = (root / "pyproject.toml").read_text()
    scripts = toml.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"',
                     scripts, re.M).groups()


def _console_script(name: str) -> tuple[list[str], dict | None]:
    """Command and environment that run the console script ``name``.

    Without an installed entry point on PATH, the ``[project.scripts]``
    target is read from pyproject.toml and run with src/ importable.
    """
    if shutil.which(name):
        return [name], None
    module, func = _script_target(name)
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], _src_env()


def test_console_script():
    command, env = _console_script("escatter-entropy")
    proc = subprocess.run(command + ["equator", "--n-cells", "4"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# escatter-entropy v")
    assert lines[2] == "4,3,4,2,3,1,ok"


@pytest.mark.parametrize("launch", ["python -m", "console script"])
def test_process_entry_runs_without_gc_and_freezes_the_heap(launch):
    # a CLI process runs its rows with automatic GC off and freezes the
    # heap before it exits, whether started as a module or as the script
    # pyproject.toml names; a spy on the equator row records the GC state
    if launch == "python -m":
        start = "runpy.run_module('escatter.cli', run_name='__main__')"
    else:
        module, func = _script_target("escatter-entropy")
        start = f"sys.exit(importlib.import_module('{module}').{func}())"
    code = textwrap.dedent(f"""\
        import gc, importlib, runpy, sys
        from escatter import spin
        seen, real = [], spin.equator_entropies
        def spy(n):
            seen.append(gc.isenabled())
            return real(n)
        spin.equator_entropies = spy
        sys.argv = ["escatter-entropy", "equator", "--n-cells", "4,8"]
        try:
            {start}
        finally:
            print(seen, gc.isenabled(), gc.get_freeze_count() > 0,
                  file=sys.stderr)
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2:] == ["4,3,4,2,3,1,ok", "8,4,5,3,4,1,ok"]
    assert proc.stderr.splitlines() == ["[False, False] False True"]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_gc_alone(enabled, capsys):
    # only the process entry touches the collector: main(), which tests and
    # the benchmark's replay call, leaves its state and the freeze as found
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["equator", "--n-cells", "4"]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert capsys.readouterr().out.splitlines()[2] == "4,3,4,2,3,1,ok"


def test_concurrent_builds_equal_sequential_builds():
    # vn-compare's rows build their matrices on concurrent worker threads,
    # with no lock: builds share only the Gauss-Legendre node cache.  Six
    # threads, each on its own point, switching every microsecond, must
    # all finish in bounded time with the bytes of a sequential build
    import numpy as np

    from escatter.density_matrix import build_meridian_matrix

    points = [(e, n) for e in (5.0, 7.0, 20.0) for n in (32, 48)]

    def build(e_ev, n_grid):
        ctx = make_context(e_ev, 100.0, math.sqrt(2.0))
        return build_meridian_matrix(ctx, n_grid).rho

    sequential = [build(*point) for point in points]
    concurrent = [None] * len(points)

    def worker(k):
        concurrent[k] = build(*points[k])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(points))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in workers)
    for seq, con in zip(sequential, concurrent, strict=True):
        assert con is not None and np.array_equal(con, seq)


@pytest.mark.parametrize("command", ["spinless-sweep", "vn-compare"])
def test_empty_domain_row_fails_without_warning(command):
    # 2 E b_bar < 1: the cutoff angle is above pi/2 and no angle is
    # accessible; the row fails with a message naming both, and nothing
    # else (no numpy warning) reaches stderr
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", command, "--energy-ev", "0.0001",
         "--packet-nm", "0.01", "--threads", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
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
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", "spin-sweep", "--energy-ev", e_ev,
         "--packet-nm", "1000", "--k-scale", SQRT2, "--threads", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"\[spin-sweep\] row 0 failed: error: non-finite cell "
                        r"weight in the parallel channel at theta = "
                        r"\d\.\d+e-\d+", line), line


@pytest.mark.parametrize("command, channel", [
    ("spinless-sweep", "spinless"), ("sphere-sweep", "spinless"),
    ("spin-sweep", "parallel")])
def test_huge_packet_underflow_fails_cleanly(command, channel):
    # 5 eV / 1e170 nm: the product of the first cell's half-angle sines
    # underflows and the cell integral divides by zero; the row fails
    # naming the channel and the grid's lower edge, where it printed a
    # bare "float division by zero" (spin-sweep: its parallel channel is
    # reduced first).  sphere-sweep fails first on its pixel count, as
    # delta_theta^2 underflows to 0 from about 1e161 nm
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", command, "--energy-ev", "5",
         "--packet-nm", "1e170", "--k-scale", SQRT2, "--threads", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    if command == "sphere-sweep":
        failure = (r"sphere pixel count Omega_0 / delta_theta\^2 leaves the "
                   r"float range \(pixel side delta_theta = 1\.74\d*e-171 rad\)")
    else:
        failure = (rf"{channel}-channel cell weights underflow: the grid's "
                   r"lower edge theta = 4\.07\d*e-171 rad is too close to 0 "
                   r"\(division by zero in the cell integrals\)")
    assert re.fullmatch(rf"\[{command}\] row 0 failed: error: {failure}",
                        line), line


def test_huge_packet_overflow_fails_cleanly():
    # 5 eV / 1e160 nm, parallel channel: the first cells' weights are
    # inf.  The row fails naming the channel and the first cell's angle;
    # it printed a bare "intermediate overflow in fsum", and later named
    # the grid's lower edge when the Euler-Maclaurin middle's sum
    # overflowed
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", "spinless-sweep", "--channel",
         "parallel", "--energy-ev", "5", "--packet-nm", "1e160", "--k-scale",
         SQRT2, "--threads", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"\[spinless-sweep\] row 0 failed: error: non-finite "
                        r"cell weight in the parallel channel at theta = "
                        r"4\.9\d*e-161", line), line


def test_huge_packet_rows_that_compute_keep_computing(capsys):
    # every channel computes up to about 1e153 nm at 5 eV, and each row
    # equals its row at 1e70 nm: the entropies depend on E alone.  Beyond
    # about 1e78 nm the first cell's sin^4 product was subnormal and these
    # rows printed wrong digits, from 1e81 nm they failed.  The parallel
    # channel computes at 1e100 and 1e150 nm (1e160 nm overflows), and
    # post-selection bands at 1e300 nm
    def row(command, l_nm):
        assert main([command, "--energy-ev", "5", "--packet-nm", l_nm,
                     "--k-scale", SQRT2, "--threads", "1", "--format",
                     "json"]) == 0
        [out] = json.loads(capsys.readouterr().out)
        return {k: v for k, v in out.items() if k.startswith("S_")}

    for command in ("spinless-sweep", "sphere-sweep", "spin-sweep"):
        narrow = row(command, "1e70")
        for l_nm in ("1e80", "1e81", "1e100", "1e150", "1e153"):
            assert row(command, l_nm) == pytest.approx(narrow, abs=1e-12), \
                (command, l_nm)
    # sphere-sweep's pixel count Omega_0 / delta_theta^2 leaves the float
    # range from about 7e152 nm, and is the exact integer quotient there
    assert main(["sphere-sweep", "--energy-ev", "5", "--packet-nm", "1e153",
                 "--k-scale", SQRT2, "--threads", "1"]) == 0
    [line] = capsys.readouterr().out.splitlines()[2:]
    ctx = make_context(5.0, 1e153, math.sqrt(2.0))
    domain = ring_grid(ctx, SpinChannel.SPINLESS, n_cells=1)
    omega0 = 2.0 * math.pi * (math.cos(domain.theta_lo) - math.cos(domain.theta_hi))
    pixels = math.floor(Fraction(omega0) / Fraction(ctx.delta_theta) ** 2)
    assert pixels > 1e308
    assert line.split(",")[2] == str(pixels)
    assert main(["postselect-range", "--energy-ev", "5", "--packet-nm", "1e300",
                 "--k-scale", SQRT2, "--threads", "1"]) == 0
    capsys.readouterr()
    for l_nm in ("1e100", "1e150"):
        assert main(["spinless-sweep", "--channel", "parallel", "--energy-ev", "5",
                     "--packet-nm", l_nm, "--k-scale", SQRT2, "--threads", "1",
                     "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["S_bits"] == pytest.approx(2.4324, abs=1e-4), l_nm

    # these parallel-channel rows' first cells weigh up to 9.6e307 at the
    # multiplier c = 1, so a fixed c in place of the reducer's overflows
    # their weights or sums.  Each equals the same energy's row at 5e4 nm
    def s_bits(energies, l_nm):
        assert main(["spinless-sweep", "--channel", "parallel", "--energy-list",
                     energies, "--packet-nm", l_nm, "--k-scale", SQRT2,
                     "--threads", "1", "--format", "json"]) == 0
        return {row["E_ev"]: row["S_bits"]
                for row in json.loads(capsys.readouterr().out)}

    narrow = s_bits("1e2,1e3,1e4,1e5,1e6", "5e4")
    for l_nm, energies in (("1e147", "1e6"), ("1e148", "1e5,1e6"),
                           ("1e149", "1e4,1e5"), ("1e150", "1e3,1e4"),
                           ("1e151", "1e2,1e3")):
        for e_ev, s in s_bits(energies, l_nm).items():
            assert s == pytest.approx(narrow[e_ev], abs=1e-9), (e_ev, l_nm)


@pytest.mark.parametrize("command, e_ev, l_nm, narrow_nm", [
    ("spinless-sweep", "100", "1e152", "5e4"),
    ("sphere-sweep", "1", "1e150", "1e100"),
], ids=["parallel-wlnw", "parallel-pixel-weights"])
def test_rows_past_the_old_weight_range_compute(command, e_ev, l_nm, narrow_nm,
                                                capsys):
    # in units of pi / (4 K^4) these parallel-channel rows failed: at
    # 100 eV / 1e152 nm the first cell's w ln w overflowed ("sums leave the
    # float range"), at 1 eV / 1e150 nm a pixel weight w / m underflowed
    # into log.  Weighed relative to the first cell, with w ln(w / m) taken
    # as w ln w - w ln m, each computes and equals its row at a narrower
    # packet
    rows = {}
    for packet in (narrow_nm, l_nm):
        assert main([command, "--channel", "parallel", "--energy-ev", e_ev,
                     "--packet-nm", packet, "--k-scale", SQRT2, "--threads", "1",
                     "--format", "json"]) == 0
        [rows[packet]] = json.loads(capsys.readouterr().out)
    assert rows[l_nm]["status"] == "ok"
    assert rows[l_nm]["S_bits"] == pytest.approx(rows[narrow_nm]["S_bits"], abs=1e-9)


def test_vn_compare_packet_too_wide_fails_without_warning():
    # 5 eV / 1e170 nm: sigma_k^2 underflows to 0.  numpy printed three
    # RuntimeWarnings and the row failed on "J(mu=...) is nan"; the build
    # now refuses it first, naming sigma_k
    proc = subprocess.run(
        [sys.executable, "-m", "escatter.cli", "vn-compare", "--energy-ev", "5",
         "--packet-nm", "1e170", "--n-grid", "4", "--k-scale", SQRT2,
         "--threads", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"\[vn-compare\] row 0 failed: error: sigma_k = "
                        r"5\.29\d*e-172 is too small for the kernel: "
                        r"sigma_k\^2 = 0\.0 is below the normal float range "
                        r"or 2K / sigma_k\^2 overflows \(the packet is too "
                        r"wide\)", line), line


@pytest.mark.parametrize("e_ev,l_nm,n_grid", [
    ("1000", "50000", "2048"), ("2000", "50000", "2048"),
    ("10000", "10000", "2048"), ("10000", "50000", "4096"),
    ("20", "50000", "2048")])
def test_j_table_close_to_2k_computes(e_ev, l_nm, n_grid, monkeypatch, capsys):
    # within a few sigma_k of mu = 2K the table bisects to panels whose
    # nodes mid + half x round to ulp(mu), which moves x by up to ~1e-6.
    # A fit at the ideal x then missed the 1e-10 check however narrow the
    # panel, and these rows failed at the panel budget.  Fitted at the x
    # where the nodes really sit, each row computes in at most two
    # direct-J rounds, and the table's J within 12 sigma_k of 2K is
    # direct J to 1e-10 relative
    from escatter import density_matrix

    table, direct = density_matrix._kernel_j_table, density_matrix._kernel_j
    rounds, band = [], []

    def recording_direct(mu, c):
        rounds.append(mu.size)
        return direct(mu, c)

    def recording_table(mu, c):
        band.append((mu, table(mu, c)))
        return band[-1][1]

    monkeypatch.setattr(density_matrix, "_kernel_j", recording_direct)
    monkeypatch.setattr(density_matrix, "_kernel_j_table", recording_table)
    t0 = time.perf_counter()
    assert main(["vn-compare", "--energy-ev", e_ev, "--packet-nm", l_nm,
                 "--n-grid", n_grid, "--k-scale", SQRT2, "--threads", "1"]) == 0
    assert time.perf_counter() - t0 < 30.0
    assert capsys.readouterr().err == ""
    assert len(rounds) <= 2
    [(mu, j)] = band
    ctx = make_context(float(e_ev), float(l_nm), math.sqrt(2.0))
    near = mu > 2.0 * ctx.K - 12.0 * ctx.sigma_k
    assert near.any()
    exact = direct(mu[near], ctx)
    assert (abs(j[near] - exact) <= 1e-10 * abs(exact)).all()


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


_PIXELS_OUT_OF_RANGE = ("sphere pixel count Omega_0 / delta_theta^2 leaves the "
                        "float range")
_BESSEL_OVERFLOW = "the Bessel argument (2K)^2 / sigma_k^2 overflows"
_TINY_EL = ("--energy-ev", "1e-200", "--packet-nm", "1e-200")
_NO_ANGLE = ("2 E b_bar rounds to 0 at e_ev = 1e-200, l_nm = 1e-200: no "
             "scattering angle is accessible")


@pytest.mark.parametrize("argv, quantity", [
    (["spinless-sweep", "--energy-ev", "1e160"], "e_ev = 1e+160 is out of range"),
    (["sphere-sweep", "--energy-ev", "1e160"], "e_ev = 1e+160 is out of range"),
    (["spin-sweep", "--energy-ev", "1e160"], "e_ev = 1e+160 is out of range"),
    (["postselect-range", "--energy-ev", "1e160", "--theta-r", "0.1"],
     "e_ev = 1e+160 is out of range"),
    (["sphere-sweep", "--energy-ev", "5", "--packet-nm", "1e300"],
     _PIXELS_OUT_OF_RANGE),
    (["sphere-sweep", "--energy-ev", "5", "--packet-nm", "1e200",
      "--k-scale", SQRT2], _PIXELS_OUT_OF_RANGE),
    (["sphere-sweep", "--energy-ev", "1e10", "--packet-nm", "1e150",
      "--k-scale", SQRT2], "non-finite cell weight in the spinless channel at theta = "),
    (["spinless-sweep", "--energy-ev", "5", "--packet-nm", "1e308",
      "--k-scale", SQRT2], "l_nm = 1e+308 nm must be positive and finite"),
    (["vn-compare", "--energy-ev", "1e10", "--packet-nm", "1e150", "--n-grid",
      "16", "--k-scale", SQRT2], _BESSEL_OVERFLOW),
    (["vn-compare", "--energy-ev", "1e8", "--packet-nm", "1e150", "--n-grid",
      "16", "--k-scale", SQRT2], _BESSEL_OVERFLOW),
    (["spinless-sweep", *_TINY_EL], _NO_ANGLE),
    (["sphere-sweep", *_TINY_EL], _NO_ANGLE),
    (["spin-sweep", *_TINY_EL], _NO_ANGLE),
    (["postselect-range", *_TINY_EL, "--theta-r", "0.1"], _NO_ANGLE),
    (["vn-compare", *_TINY_EL, "--n-grid", "16"], _NO_ANGLE),
    (["spinless-sweep", "--channel", "parallel", "--energy-ev", "1e5",
      "--packet-nm", "1e150", "--k-scale", SQRT2],
     "non-finite cell weight in the parallel channel at theta = "),
    (["vn-compare", "--energy-ev", "1e10", "--packet-nm", "1e148", "--n-grid",
      "16", "--k-scale", SQRT2], "], where J(a) = "),
    (["vn-compare", "--energy-ev", "1e33", "--packet-nm", "1e131", "--n-grid",
      "16", "--k-scale", "1"],
     "J(mu) on the band is at most 0.0 (sigma_k = 5.2917721e-133)"),
    (["spinless-sweep", "--energy-ev", "1", "--k-scale", "5e-324"],
     "k_scale = 5e-324 is too small at e_ev = 1.0, l_nm = 100.0: K = 0.0"),
    (["spinless-sweep", "--energy-ev", "1", "--packet-nm", "1e-20",
      "--k-scale", "1e-300"], "k_scale = 1e-300 is too small"),
], ids=["spinless-overflow", "sphere-overflow", "spin-overflow",
        "postselect-overflow", "sphere-zero-division", "sphere-pixel-underflow",
        "sphere-pixel-overflow", "packet-overflow",
        "vn-bessel-overflow", "vn-table-overflow", "spinless-tiny-el",
        "sphere-tiny-el", "spin-tiny-el", "postselect-tiny-el", "vn-tiny-el",
        "parallel-inf-weight", "vn-j-subnormal",
        "vn-j-zero", "tiny-k-scale", "tiny-k-scale-kl"])
def test_arithmetic_error_fails_the_row(argv, quantity, capsys):
    # rows whose numbers leave the float range fail naming the quantity
    # that left it, never with Python's or numpy's own text: at 1e160 eV
    # epsilon is lost against delta_theta, which the context refuses
    # naming the energy; a 1e300 nm packet's pixel side squares to zero
    # in the pixel count, which printed "float division by zero", and at
    # 1e10 eV / 1e150 nm the count overflowed ("cannot convert float
    # infinity to integer"), where it is now exact and the row fails on its
    # first cell's weight; a 1e308 nm packet is infinite in bohr, which
    # blamed the energy; and vn-compare's
    # Bessel argument overflowed with a numpy RuntimeWarning ("matrix trace
    # is 0.0", or the J table ran out of panel fits).  At 1e-200 eV and
    # 1e-200 nm, 2 E b_bar underflowed to 0 in the cutoff angle ("float
    # division by zero"); the parallel channel's first cells at 1e5 eV /
    # 1e150 nm weighed inf ("detection entropy is nan").  vn-compare's J
    # at 1e10 eV / 1e148 nm is subnormal and at 1e33 eV / 1e131 nm exactly
    # 0, which failed as the J table's panel budget and as "matrix trace
    # is 0.0"; both now give J and sigma_k.  A k-scale that rounds K or
    # K L below the normal range divided by zero in delta_theta, or blamed
    # the energy.  The row's one line is all that reaches stderr: no numpy
    # warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--threads", "1", "--format", "json"]) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.startswith(f"[{argv[0]}] row 0 failed: error: ")
    assert captured.err.count("\n") == 1
    [row] = json.loads(captured.out)
    assert row["status"].startswith("error: ")
    assert quantity in row["status"]
    for text in ("division by zero", "math domain error", "cannot convert",
                 "overflow encountered"):
        assert text not in row["status"]


@pytest.mark.parametrize("point", [
    ("1e-20", "1e-10"), ("1e160", "1e-300"), ("1e-3", "1e-3")],
    ids=["tiny-E-and-L", "huge-E-tiny-L", "small-E-and-L"])
@pytest.mark.parametrize("command, extra", [
    ("spinless-sweep", []), ("sphere-sweep", []), ("spin-sweep", []),
    ("postselect-range", ["--theta-r", "0.1"]),
    ("vn-compare", ["--n-grid", "16"]),
], ids=["spinless-sweep", "sphere-sweep", "spin-sweep", "postselect-range",
        "vn-compare"])
def test_no_accessible_angle_fails_the_row_saying_so(command, extra, point,
                                                     capsys):
    # 2 E b_bar < 1 puts epsilon at about pi, so no angle is accessible;
    # these rows blamed the pixel width, K^4, the acceptance half-angle
    # or (vn-compare) Python's own "Numerical result out of range"
    e_ev, l_nm = point
    argv = [command, "--energy-ev", e_ev, "--packet-nm", l_nm, *extra]
    assert main(argv + ["--threads", "1", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    [row] = json.loads(captured.out)
    assert re.fullmatch(
        r"error: cutoff angle epsilon = 3\.14159 rad is not below pi/2 = "
        r"1\.5708 rad: no scattering angle is accessible \(2 E b_bar < 1\)",
        row["status"])


@pytest.mark.parametrize("argv, flag", [
    (["postselect-range", "--energy-list", "5,20"], "--energy-list"),
], ids=["postselect-energy-list"])
def test_unused_extra_values_exit_2(argv, flag, capsys):
    # the command reads a single value of the flag; extra values used to
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
