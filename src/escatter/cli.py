"""Command-line harness: single points and sweeps over the entropy
pipelines, emitted as CSV or JSON tables.

Determinism contract: for a fixed configuration the output bytes are
identical run-to-run and across thread counts — workers only compute
per-row values, assembly is always in input order, and the header's
config hash covers only physics parameters (not threads, output path or
format).

Only vn-compare has a matrix, so only vn-compare imports numpy: with
``escatter.density_matrix``, in the main thread before its rows start.
Every other table runs on the standard library alone.

Only vn-compare's rows run in worker threads (``--threads``), because
only their eigensolve (LAPACK, via numpy) releases the GIL: on two
threads the eigensolves scale about 1.8x, while the matrix builds, many
small numpy calls, hold the GIL and scale 1.0-1.2x.  Every other
table's rows are pure Python, which holds it, so they run one after
another on the calling thread, and a cold start loads no thread pool.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import sys
from collections import namedtuple

from . import __version__
from .amplitudes import SpinChannel
from .entropy import shannon_discrete, shannon_ring_discrete, shannon_sphere_discrete
from .errors import NumericalError
from .geometry import ring_grid, sphere_pixel_count
from .kinematics import make_context
from .spin import (
    entropy_antiparallel,
    entropy_parallel,
    equator_entropies,
    postselect_entropies,
)

#: "meridian" has the same 1-D distribution as "rings"; "equator" reads
#: the closed forms for equal azimuthal cells; "sphere" is sphere-sweep's.
_GEOMETRIES = ("rings", "sphere", "meridian", "equator")

#: "distinguishable" (a spin-filtered pair) is an alias of "spinless".
_CHANNELS = {
    "spinless": SpinChannel.SPINLESS,
    "parallel": SpinChannel.PARALLEL,
    "antiparallel": SpinChannel.ANTIPARALLEL,
    "distinguishable": SpinChannel.SPINLESS,
}

# default acceptance half-angles for postselect-range (radians)
_DEFAULT_THETA_R = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.2, 1.4, 1.5)


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class RunConfig:
    """One command's settings; ``build_config`` fills them from flags,
    a config file and the environment, and ``validate`` checks them."""

    __slots__ = ("command", "e_list", "l_nm", "k_scale", "grid_cap", "n_grid",
                 "n_cells", "channel", "geometry", "theta_r", "out", "format",
                 "threads")

    def __init__(self, command: str, e_list: list | None = None,
                 l_nm: float = 100.0, k_scale: float = 1.0,
                 grid_cap: int = 4096, n_grid: int = 512,
                 n_cells: list | None = None, channel: str = "spinless",
                 geometry: str = "rings", theta_r: list | None = None,
                 out: str | None = None, format: str = "csv",
                 threads: int = 0) -> None:
        self.command = command
        self.e_list = [5.0] if e_list is None else e_list  # eV
        self.l_nm = l_nm
        self.k_scale = k_scale
        self.grid_cap = grid_cap
        self.n_grid = n_grid  # vn-compare matrix dimension
        self.n_cells = [3140] if n_cells is None else n_cells  # equator cells
        self.channel = channel
        self.geometry = geometry
        self.theta_r = list(_DEFAULT_THETA_R) if theta_r is None else theta_r
        self.out = out
        self.format = format
        self.threads = threads  # 0 = one per usable CPU

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return "RunConfig(" + ", ".join(
            f"{name}={value!r}" for name, value
            in zip(self.__slots__, self._fields())) + ")"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.e_list:
            raise ConfigError("energy list is empty")
        for e in self.e_list:
            if not (isinstance(e, float) and e > 0.0 and math.isfinite(e)):
                raise ConfigError(f"energies must be positive, got {e!r}")
        if not (self.l_nm > 0.0 and math.isfinite(self.l_nm)):
            raise ConfigError(f"packet size must be positive, got {self.l_nm!r}")
        if not (self.k_scale > 0.0 and math.isfinite(self.k_scale)):
            raise ConfigError(f"k-scale must be positive, got {self.k_scale!r}")
        if self.grid_cap < 2:
            raise ConfigError(f"grid cap must be >= 2, got {self.grid_cap}")
        if self.n_grid < 2:
            raise ConfigError(f"n-grid must be >= 2, got {self.n_grid}")
        if not self.n_cells or any(n < 1 for n in self.n_cells):
            raise ConfigError(f"n-cells must be positive, got {self.n_cells!r}")
        if self.channel not in _CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r}")
        if self.geometry not in _GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if not self.theta_r or any(
                not (0.0 < t <= math.pi / 2.0) for t in self.theta_r):
            raise ConfigError(
                f"theta-r values must lie in (0, pi/2], got {self.theta_r!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        if self.command == "spinless-sweep" and self.geometry == "sphere":
            raise ConfigError("use the sphere-sweep command for sphere geometry")
        if (self.command == "spinless-sweep" and self.geometry == "equator"
                and len(self.n_cells) > 1):
            raise ConfigError("spinless-sweep --geometry equator takes one "
                              f"--n-cells value, got {self.n_cells!r}")
        if self.command == "postselect-range" and len(self.e_list) > 1:
            raise ConfigError("postselect-range takes one energy, got "
                              f"--energy-list {self.e_list!r}")

    def config_hash(self) -> str:
        """12-hex digest over the physics-relevant parameters only.

        threads, out and format are excluded so that re-runs that differ
        only in execution details carry (and must reproduce) the same
        table bytes.
        """
        physics = {
            "command": self.command,
            "e_list": [format(e, ".12g") for e in self.e_list],
            "l_nm": format(self.l_nm, ".12g"),
            "k_scale": format(self.k_scale, ".12g"),
            "grid_cap": self.grid_cap,
            "n_grid": self.n_grid,
            "n_cells": self.n_cells,
            "channel": self.channel,
            "geometry": self.geometry,
            "theta_r": [format(t, ".12g") for t in self.theta_r],
        }
        canon = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "energy_ev", "energy_list", "packet_nm", "k_scale", "grid_cap", "n_grid",
    "n_cells", "channel", "geometry", "theta_r", "out", "format", "threads",
}


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: not a number: {text!r}") from exc


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: not an integer: {text!r}") from exc


def _parse_float_list(text: str, what: str) -> list:
    return [_parse_float(part, what) for part in str(text).split(",") if part.strip()]


def _parse_int_list(text: str, what: str) -> list:
    return [_parse_int(part, what) for part in str(text).split(",") if part.strip()]


def _parse_str(text: str, what: str) -> str:
    return text


#: (RunConfig field, flag / config-file key, parser) for every option but
#: the energies; the flag spelling in error messages derives from the key.
_OPTIONS = (
    ("l_nm", "packet_nm", _parse_float),
    ("k_scale", "k_scale", _parse_float),
    ("grid_cap", "grid_cap", _parse_int),
    ("n_grid", "n_grid", _parse_int),
    ("n_cells", "n_cells", _parse_int_list),
    ("channel", "channel", _parse_str),
    ("geometry", "geometry", _parse_str),
    ("theta_r", "theta_r", _parse_float_list),
    ("out", "out", _parse_str),
    ("format", "format", _parse_str),
    ("threads", "threads", _parse_int),
)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flags > config file > defaults
    (ESCATTER_THREADS ranks between the config file and the default)."""
    filevals = parse_config_file(args.config) if args.config else {}
    if "ESCATTER_THREADS" in os.environ:
        filevals.setdefault("threads", os.environ["ESCATTER_THREADS"])

    def pick(flag_value, file_key: str):
        if flag_value is not None:
            return flag_value
        return filevals.get(file_key)

    cfg = RunConfig(command=args.command)

    energy_list = pick(args.energy_list, "energy_list")
    energy_ev = pick(args.energy_ev, "energy_ev")
    if args.energy_list is not None and args.energy_ev is not None:
        raise ConfigError("give either --energy-ev or --energy-list, not both")
    if energy_list is not None:
        cfg.e_list = _parse_float_list(str(energy_list), "--energy-list")
    elif energy_ev is not None:
        cfg.e_list = [_parse_float(str(energy_ev), "--energy-ev")]

    for attr, key, parse in _OPTIONS:
        raw = pick(getattr(args, key), key)
        if raw is not None:
            setattr(cfg, attr, parse(str(raw), "--" + key.replace("_", "-")))

    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# per-command tables
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_ordered(fn, items, threads: int) -> list:
    """Apply fn to items, on ``threads`` worker threads (0 = one per usable
    CPU) but with output in input order; 1 runs them on the calling
    thread."""
    if threads == 0:
        threads = _usable_cpus()
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # GIL-free rows only

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _ring_row(cfg: RunConfig, e_ev: float) -> tuple:
    channel = _CHANNELS[cfg.channel]
    if cfg.geometry == "equator":
        # azimuthal cells on the equator are equally likely: closed forms
        eq = equator_entropies(cfg.n_cells[0])
        if channel is SpinChannel.ANTIPARALLEL:
            return eq.n_cells, eq.S_antiparallel_modified
        return eq.n_cells, eq.S_parallel_modified
    ctx = make_context(e_ev, cfg.l_nm, cfg.k_scale)
    return ring_grid(ctx, channel).n_cells, shannon_ring_discrete(ctx, channel)


def _sphere_row(cfg: RunConfig, e_ev: float) -> tuple:
    channel = _CHANNELS[cfg.channel]
    ctx = make_context(e_ev, cfg.l_nm, cfg.k_scale)
    return (ring_grid(ctx, channel).n_cells, sphere_pixel_count(ctx, channel),
            shannon_sphere_discrete(ctx, channel))


def _vn_inputs(cfg: RunConfig) -> list[tuple]:
    # runs in the main thread, before the row pool: numpy is imported here,
    # not concurrently by the first rows
    importlib.import_module(".density_matrix", __package__)
    return [(e, cfg.n_grid) for e in cfg.e_list]


def __getattr__(name: str):
    # the density-matrix functions of the vn-compare rows, for callers that
    # look them up here; they come with numpy, so on first use only
    if name in ("build_meridian_matrix", "eigen_spectrum"):
        from . import density_matrix
        return getattr(density_matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _vn_row(cfg: RunConfig, e_ev: float, n_grid: int) -> tuple:
    from .density_matrix import build_meridian_matrix, eigen_spectrum

    ctx = make_context(e_ev, cfg.l_nm, cfg.k_scale)
    dm = build_meridian_matrix(ctx, n_grid, grid_cap=cfg.grid_cap)
    s_vn = shannon_discrete(eigen_spectrum(dm))
    # exact discrete sum: the continuous-limit form is not valid when the
    # cell width is comparable to the cutoff angle, which is the case on
    # coarse matrix-sized grids
    s_ring = shannon_ring_discrete(ctx, SpinChannel.SPINLESS, n_cells=n_grid)
    return s_ring, s_vn, abs(s_vn - s_ring)


def _spin_row(cfg: RunConfig, e_ev: float) -> tuple:
    ctx = make_context(e_ev, cfg.l_nm, cfg.k_scale)
    par = entropy_parallel(ctx)
    ap = entropy_antiparallel(ctx)
    return par.grid.n_cells, par.S, ap.S, par.S_modified, ap.S_modified


def _postselect_row(cfg: RunConfig, e_ev: float, theta_r: float) -> tuple:
    res = postselect_entropies(make_context(e_ev, cfg.l_nm, cfg.k_scale),
                               theta_r)
    return (res["n_cells"], res["S_spinless"], res["S_par"], res["S_ap"],
            res["delta_S"], res["zero_weight"])


def _equator_row(cfg: RunConfig, n_cells: int) -> tuple:
    res = equator_entropies(n_cells)
    return (res.S_parallel, res.S_antiparallel, res.S_parallel_modified,
            res.S_antiparallel_modified, res.delta_S)


def _per_energy(cfg: RunConfig) -> list[tuple]:
    return [(e,) for e in cfg.e_list]


class _Table(namedtuple("_Table", ("inputs", "computed", "row_inputs", "row",
                                   "releases_gil"), defaults=(False,))):
    """How one command builds its table: ``row_inputs(cfg)`` gives one
    tuple of ``inputs`` values per row, and ``row(cfg, *inputs)`` returns
    that row's ``computed`` values in column order.  ``releases_gil``
    marks the one table whose rows may run on ``--threads`` workers
    (vn-compare: its eigensolves release the GIL)."""

    __slots__ = ()

    @property
    def columns(self) -> list[str]:
        return [*self.inputs, *self.computed, "status"]


_TABLES = {
    "spinless-sweep": _Table(("E_ev",), ("n_cells", "S_bits"),
                             _per_energy, _ring_row),
    "sphere-sweep": _Table(("E_ev",), ("n_rings", "pixel_count", "S_bits"),
                           _per_energy, _sphere_row),
    "vn-compare": _Table(("E_ev", "n_grid"),
                         ("S_shannon_ring", "S_vn", "abs_diff"),
                         _vn_inputs, _vn_row, releases_gil=True),
    "spin-sweep": _Table(("E_ev",), ("n_cells", "S_par", "S_ap",
                                     "S_par_modified", "S_ap_modified"),
                         _per_energy, _spin_row),
    "postselect-range": _Table(("E_ev", "theta_r"),
                               ("n_cells", "S_spinless", "S_par", "S_ap",
                                "delta_S", "zero_weight"),
                               lambda cfg: [(cfg.e_list[0], t)
                                            for t in cfg.theta_r],
                               _postselect_row),
    "equator": _Table(("n_cells",), ("S_par", "S_ap", "S_par_modified",
                                     "S_ap_modified", "delta_S"),
                      lambda cfg: [(n,) for n in cfg.n_cells], _equator_row),
}

COMMANDS = tuple(_TABLES)

#: What every table does with a row whose computation fails.
_FAILED_ROW_RULE = ("A failed row keeps its input columns, has nan (JSON "
                    "null) in every computed column and 'error: <message>' "
                    "as its status; the other rows still run.")


def _table(cfg: RunConfig) -> tuple[list[str], list[dict]]:
    """The command's columns and rows, in input order (see _FAILED_ROW_RULE)."""
    table = _TABLES[cfg.command]

    def one(inputs: tuple) -> dict:
        row = dict(zip(table.inputs, inputs))
        try:
            values = table.row(cfg, *inputs)
            status = "ok"
        except (ValueError, NumericalError, ArithmeticError) as exc:
            values = (math.nan,) * len(table.computed)
            status = f"error: {exc}"
        row.update(zip(table.computed, values, strict=True), status=status)
        return row

    threads = cfg.threads if table.releases_gil else 1
    return table.columns, _map_ordered(one, table.row_inputs(cfg), threads)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    lines = [f"# escatter-entropy v{__version__}, config-hash={cfg.config_hash()}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_escape(_format_cell(row.get(col)))
                              for col in columns))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_json(cfg: RunConfig, columns: list[str], rows: list[dict]) -> str:
    payload = [{col: _jsonable(row.get(col)) for col in columns} for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so interrupted runs never
    leave a truncated table at the target path."""
    import tempfile  # only --out needs it: kept out of every cold start

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".escatter-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    cfg.validate()
    columns, rows = _table(cfg)
    text = (render_csv if cfg.format == "csv" else render_json)(cfg, columns, rows)

    if cfg.out is not None:
        write_atomic(cfg.out, text)
        for i, row in enumerate(rows):
            summary = " ".join(
                f"{col}={_format_cell(row.get(col))}" for col in columns)
            print(f"[{cfg.command}] row {i}: {summary}")
        print(f"[{cfg.command}] wrote {len(rows)} rows to {cfg.out}")
    else:
        sys.stdout.write(text)

    failures = [(i, row["status"]) for i, row in enumerate(rows)
                if row.get("status") != "ok"]
    if failures:
        for i, status in failures:
            print(f"[{cfg.command}] row {i} failed: {status}", file=sys.stderr)
        return 3
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escatter-entropy",
        description="Entropy tables for electron-electron Coulomb scattering: "
                    "discrete Shannon sweeps, spin channels, "
                    "post-selection and von Neumann comparisons.",
        epilog="Columns per command: " + "; ".join(
            f"{name} -> {', '.join(table.columns)}"
            for name, table in _TABLES.items())
        + ". " + _FAILED_ROW_RULE + " Exit codes: 0 ok, 2 bad configuration, "
          "3 numerical failure (partial table still written, see the "
          "status column).")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat 'key = value' config file; "
                                         "command-line flags win")
    parser.add_argument("--energy-ev", help="single CM kinetic energy in eV")
    parser.add_argument("--energy-list", help="comma-separated energies in eV")
    parser.add_argument("--packet-nm", help="Gaussian packet size in nm "
                                            "(default 100)")
    parser.add_argument("--k-scale", help="wave-number calibration factor "
                                          "(default 1; sqrt(2) reproduces the "
                                          "benchmark tables)")
    parser.add_argument("--grid-cap", help="dense-diagonalization cap "
                                           "(default 4096)")
    parser.add_argument("--n-grid", help="vn-compare matrix dimension "
                                         "(default 512)")
    parser.add_argument("--n-cells", help="equator cell count(s), "
                                          "comma-separated (default 3140)")
    parser.add_argument("--channel", choices=sorted(_CHANNELS),
                        help="default spinless; distinguishable is an alias "
                             "of spinless")
    parser.add_argument("--geometry", choices=sorted(_GEOMETRIES))
    parser.add_argument("--theta-r", help="comma-separated acceptance "
                                          "half-angles in radians")
    parser.add_argument("--out", help="output file path (atomic write); "
                                      "default prints the table to stdout")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--threads", help="worker threads for vn-compare "
                                          "rows, whose eigensolves release "
                                          "the GIL (other tables run on one "
                                          "thread); 0 = one per usable CPU; "
                                          "env ESCATTER_THREADS is the "
                                          "fallback")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
