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
small numpy calls, hold the GIL and only contend for it, so they take
turns: a row's eigensolve starts right after its own build.  Every other
table's rows are pure Python, which holds it, so they run one after
another on the calling thread, and a cold start loads no thread pool.

A CLI process (``python -m escatter.cli`` or the ``escatter-entropy``
script) enters through :func:`process_main`: it runs ``main()`` with
automatic garbage collection off and freezes the heap before exit, so
the interpreter's final collections no longer walk numpy's objects.
``main(argv)`` called in-process leaves the collector as it was.
"""

from __future__ import annotations

import _thread
import argparse
import gc
import importlib
import json
import math
import os
import re
import sys
from collections import namedtuple

try:  # the interpreter's own sha256: hashlib would load OpenSSL's
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

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


# ---------------------------------------------------------------------------
# settings: options, RunConfig, config file
# ---------------------------------------------------------------------------

_Option = namedtuple("_Option", ("field", "key", "parse", "default", "hashed",
                                 "help", "choices"), defaults=(None, None))

#: Every setting, once: its RunConfig field, its flag and config-file key
#: (``packet_nm`` is ``--packet-nm``), parser (``[float]`` parses a
#: comma-separated list), default (a tuple default is a fresh list in each
#: RunConfig), whether the config hash covers it, and its --help text (a
#: template the default is formatted into) and choices.  The two energy
#: keys fill one field, whose default the second gives.
_OPTIONS = (
    _Option("e_list", "energy_ev", lambda text: [float(text)], None, True,
            "single CM kinetic energy in eV"),
    _Option("e_list", "energy_list", [float], (5.0,), True,
            "comma-separated energies in eV"),
    _Option("l_nm", "packet_nm", float, 100.0, True,
            "Gaussian packet size in nm (default {:g})"),
    _Option("k_scale", "k_scale", float, 1.0, True,
            "wave-number calibration factor (default {:g}; sqrt(2) reproduces "
            "the benchmark tables)"),
    _Option("grid_cap", "grid_cap", int, 4096, True,
            "dense-diagonalization cap (default {})"),
    _Option("n_grid", "n_grid", int, 512, True,
            "vn-compare matrix dimension (default {})"),
    _Option("n_cells", "n_cells", [int], (3140,), True,
            "equator cell count(s), comma-separated (default {[0]})"),
    _Option("channel", "channel", str, "spinless", True,
            "default {}; distinguishable is an alias of spinless",
            sorted(_CHANNELS)),
    _Option("geometry", "geometry", str, "rings", True,
            choices=sorted(_GEOMETRIES)),
    _Option("theta_r", "theta_r", [float], _DEFAULT_THETA_R, True,
            "comma-separated acceptance half-angles in radians"),
    _Option("out", "out", str, None, False, "output file path (atomic "
            "write); default prints the table to stdout"),
    _Option("format", "format", str, "csv", False, choices=("csv", "json")),
    _Option("threads", "threads", int, 0, False,
            "worker threads for vn-compare rows, whose eigensolves release "
            "the GIL (other tables run on one thread); 0 = one per usable "
            "CPU; env ESCATTER_THREADS is the fallback"),
)

_DEFAULTS = {opt.field: opt.default for opt in _OPTIONS}
_KEYS = {opt.key for opt in _OPTIONS}
_HASHED = {"command": str, **{opt.field: opt.parse for opt in _OPTIONS
                               if opt.hashed}}  # field -> its (last) parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _canonical(value, parse):
    """A value as the config hash reads it: a float field's as 12-digit
    text, also when it holds an int."""
    if isinstance(parse, list):
        return [_canonical(v, parse[0]) for v in value]
    return format(value, ".12g") if parse is float else value


class RunConfig:
    """One command's settings, one field per ``_OPTIONS`` field and each
    a keyword; ``build_config`` fills them from flags, a config file and
    the environment, and ``validate`` checks them."""

    __slots__ = ("command", *_DEFAULTS)

    def __init__(self, command: str, **values) -> None:
        self.command = command
        for name, default in _DEFAULTS.items():
            value = values.pop(name, default)
            setattr(self, name, list(value) if isinstance(value, tuple) else value)
        if values:
            raise TypeError(f"RunConfig() got unexpected keywords {sorted(values)}")

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
        if self.command == "vn-compare" and self.n_grid > self.grid_cap:
            raise ConfigError(f"n-grid {self.n_grid} exceeds the "
                              f"dense-diagonalization cap {self.grid_cap}")
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
        physics = {name: _canonical(getattr(self, name), parse)
                   for name, parse in _HASHED.items()}
        canon = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return sha256(canon.encode("utf-8")).hexdigest()[:12]


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; a '#' starting a word opens a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _parse(parse, text: str, flag: str):
    """``parse(text)``, or each comma-separated part for ``[parse]``; a
    ValueError becomes a ConfigError that names the flag."""
    try:
        if isinstance(parse, list):
            return [parse[0](part) for part in text.split(",") if part.strip()]
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flags > config file >
    ESCATTER_THREADS > defaults.  A source gives at most one of the two
    energy keys, and one that gives either replaces lower sources' energies."""
    env = os.environ.get("ESCATTER_THREADS")
    given: dict = {}  # field -> (option, text) from the highest source
    for source in ({} if env is None else {"threads": env},
                   parse_config_file(args.config) if args.config else {},
                   vars(args)):
        here: dict = {}
        for opt in _OPTIONS:
            if source.get(opt.key) is not None:
                if opt.field in here:
                    raise ConfigError(f"give either {_flag(here[opt.field][0].key)}"
                                      f" or {_flag(opt.key)}, not both")
                here[opt.field] = opt, source[opt.key]
        given.update(here)
    cfg = RunConfig(args.command, **{
        field: _parse(opt.parse, text, _flag(opt.key))
        for field, (opt, text) in given.items()})
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


# vn-compare builds one matrix at a time: two concurrent n = 1024 builds
# took 0.11-0.13 s, against 0.045 s each one after the other.  (A
# threading.Lock; ``threading`` itself is not loaded under ``python -S``.)
_BUILD_TURN = _thread.allocate_lock()


def _vn_row(cfg: RunConfig, e_ev: float, n_grid: int) -> tuple:
    from .density_matrix import build_meridian_matrix, eigen_spectrum

    ctx = make_context(e_ev, cfg.l_nm, cfg.k_scale)
    with _BUILD_TURN:
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
    for i, status in failures:
        print(f"[{cfg.command}] row {i} failed: {status}", file=sys.stderr)
    return 3 if failures else 0


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
    for opt in _OPTIONS:
        parser.add_argument(_flag(opt.key), choices=opt.choices, help=opt.help
                            and opt.help.format(_DEFAULTS[opt.field]))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def process_main() -> int:
    """``main()`` as a whole process: the entry of ``python -m
    escatter.cli`` and of the ``escatter-entropy`` script.

    Automatic garbage collection is off while it runs (a run leaves a few
    hundred objects in reference cycles, all from imports), and the heap
    is frozen before it returns, so the interpreter's final collections
    skip every object the run made: numpy alone tracks about 20k."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
