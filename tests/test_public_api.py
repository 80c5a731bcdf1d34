import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import escatter
import escatter.cli

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bound_public_names() -> set[str]:
    """Names that escatter/__init__.py itself binds, by import, by
    assignment or on first use through its module ``__getattr__`` (the
    names listed in ``_DENSITY_MATRIX_NAMES``), other than private ones."""
    tree = ast.parse(pathlib.Path(escatter.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            names.update(targets)
            if targets == {"_DENSITY_MATRIX_NAMES"}:
                names.update(ast.literal_eval(node.value))
    return {n for n in names if not n.startswith("_")} | {"__version__"}


def test_all_is_sorted_unique_and_resolves():
    exported = escatter.__all__
    assert exported == sorted(set(exported))
    for name in exported:
        assert hasattr(escatter, name), name


def test_all_matches_the_bound_names():
    # a name pruned from a module cannot linger as an export, and a name
    # imported into the package cannot be left out of __all__
    assert set(escatter.__all__) == _bound_public_names()
    assert len(escatter.__all__) == 25


def _escatter_names_read_by(path: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) for every ``escatter`` attribute that the file at
    ``path`` reads: names other than submodules that it imports from an
    escatter module, attributes it reads from a submodule it bound by
    ``from escatter import ...``, and
    the (module, "name", ...) rows of tables such as a tracer's, which
    are looked up by name.  The file is parsed, not imported."""
    tree = ast.parse(path.read_text())
    modules, pairs = {}, set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "escatter"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if node.module == "escatter" and importlib.util.find_spec(dotted):
                    modules[alias.asname or alias.name] = dotted
                else:
                    pairs.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            pairs.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
              and isinstance(node.elts[1], ast.Constant)
              and isinstance(node.elts[1].value, str)):
            pairs.add((modules[node.elts[0].id], node.elts[1].value))
    return pairs


def test_names_the_benchmark_tracer_rebinds_exist():
    # perfbench/ reads library names: tracing.py wraps functions by name
    # (its TRACED and COUNTED tables, and the cli attributes it reads),
    # and test_check.py asserts some of them.  A refactor that drops one
    # fails here instead of in a benchmark run.  The files are parsed, not
    # imported: they import perfbench's own modules
    pairs = set()
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        pairs |= _escatter_names_read_by(path)
    assert {("escatter.geometry", "channel_cell_integrals"),
            ("escatter.density_matrix", "kernel_element"),
            ("escatter.cli", "_map_ordered"),
            ("escatter.cli", "build_meridian_matrix")} <= pairs
    for module, name in sorted(pairs):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_only_geometry_resolves_a_channel_grid():
    # one grid resolver: ring_grid decides a channel's domain and lays its
    # cells out, and the grids it does not resolve (range_grid_below's)
    # are built beside it, so no other module constructs an AngularGrid
    src = pathlib.Path(escatter.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "AngularGrid":
                    callers.add(path.name)
    assert callers == {"geometry.py"}


def test_density_matrix_names_resolve_on_first_use():
    from escatter import density_matrix

    for name in escatter._DENSITY_MATRIX_NAMES:
        assert getattr(escatter, name) is getattr(density_matrix, name), name
    assert escatter.cli.build_meridian_matrix is density_matrix.build_meridian_matrix
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        escatter.not_a_name


def _probe(code: str, *flags: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, started with the
    interpreter options ``flags``, on this package."""
    src = str(pathlib.Path(escatter.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


_SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"

#: the modules a probe's code adds to those of a bare interpreter that
#: are neither in the standard library nor part of this package
_FOREIGN_ADDED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "{code}\n"
    "print(sorted(m for m in set(sys.modules) - before\n"
    "             if m.split('.')[0] not in sys.stdlib_module_names\n"
    "             and m.split('.')[0] != 'escatter'))")

#: one small row of every table but vn-compare
_NUMPY_FREE_COMMANDS = {
    "spinless-sweep": ["spinless-sweep", "--energy-ev", "1e4"],
    "sphere-sweep": ["sphere-sweep", "--energy-ev", "1e4"],
    "spin-sweep": ["spin-sweep", "--energy-ev", "1e4"],
    "postselect-range": ["postselect-range", "--energy-ev", "1e4",
                         "--theta-r", "0.5"],
    "equator": ["equator", "--n-cells", "4"],
}


def _run_cli(argv: list[str]) -> str:
    """Probe code that runs the CLI on ``argv`` with its table discarded."""
    return ("import contextlib, io, escatter.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert escatter.cli.main({argv!r} + ['--threads', '2']) == 0")


def test_cli_import_loads_only_the_standard_library():
    # numpy's import was most of a cold start: escatter.cli needs none of it
    code = _FOREIGN_ADDED.format(code="import escatter.cli")
    assert _probe(code).strip() == "[]"


@pytest.mark.parametrize("argv", list(_NUMPY_FREE_COMMANDS.values()),
                         ids=list(_NUMPY_FREE_COMMANDS))
def test_commands_without_a_matrix_load_only_the_standard_library(argv):
    code = _FOREIGN_ADDED.format(code=_run_cli(argv))
    assert _probe(code).strip() == "[]"


#: standard-library packages that cost a cold start tens of milliseconds
#: each: dataclasses (which loads inspect), typing, and the thread pool
#: (concurrent.futures, which loads logging); and hashlib's OpenSSL
#: binding _hashlib, about 4 ms and 3 MB of peak RSS a start, where the
#: config hash needs only the interpreter's own sha256
_COSTLY_STDLIB = ("dataclasses", "inspect", "typing", "concurrent", "logging",
                  "_hashlib")

_COSTLY_ADDED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "{code}\n"
    "print(sorted(m for m in set(sys.modules) - before\n"
    "             if m.split('.')[0] in {costly!r}))")

_COLD_STARTS = {
    "import": "import escatter.cli",
    **{name: _run_cli(argv) for name, argv in _NUMPY_FREE_COMMANDS.items()},
    "postselect-range-2-rows": _run_cli(["postselect-range", "--energy-ev", "1e4",
                                         "--theta-r", "0.1,0.5"]),
}


@pytest.mark.parametrize("code", list(_COLD_STARTS.values()), ids=list(_COLD_STARTS))
def test_cold_start_loads_only_the_cheap_core(code):
    # -S: no site .pth file preloads any of them, as it can with site
    code = _COSTLY_ADDED.format(code=code, costly=_COSTLY_STDLIB)
    assert _probe(code, "-S").strip() == "[]"


def test_vn_compare_loads_numpy():
    code = _FOREIGN_ADDED.format(
        code=_run_cli(["vn-compare", "--n-grid", "48", "--energy-list", "5,20"]))
    assert "numpy" in _probe(code)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the package has one quadrature rule and one i0e of its own: a cold
    # CLI start must pay for importing no part of scipy
    assert _probe(f"import sys, escatter.cli; print({_SCIPY_LOADED})").strip() == "[]"


#: probe code that runs a small two-row vn-compare, its exit code in ``code``
_VN_COMPARE_RUN = (
    "import contextlib, io, sys, escatter.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = escatter.cli.main(['vn-compare', '--n-grid', '48', "
    "'--energy-list', '5,20', '--threads', '2'])\n")


def test_vn_compare_runs_without_scipy():
    # the meridian kernel's Bessel factor is the package's own, so not even
    # a vn-compare run loads scipy (a test-only dependency)
    out = _probe(_VN_COMPARE_RUN + f"print(code, {_SCIPY_LOADED})")
    assert out.strip() == "0 []"


def test_vn_compare_loads_neither_subprocess_nor_ctypes_util():
    # the eigensolve's subnormal flush finds fegetenv and fesetenv among
    # the process's own symbols: ctypes.util.find_library would import
    # subprocess, ~5 ms of every cold vn-compare start
    out = _probe(_VN_COMPARE_RUN + "print(code, [m for m in ('subprocess', "
                 "'ctypes.util') if m in sys.modules])")
    assert out.strip() == "0 []"
