import ast
import os
import pathlib
import subprocess
import sys

import pytest

import escatter
import escatter.cli


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
    assert len(escatter.__all__) == 34


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
    "equator-geometry": ["spinless-sweep", "--geometry", "equator",
                         "--channel", "antiparallel"],
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


def test_vn_compare_runs_without_scipy():
    # the meridian kernel's Bessel factor is the package's own, so not even
    # a vn-compare run loads scipy (a test-only dependency)
    out = _probe(
        "import contextlib, io, sys, escatter.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = escatter.cli.main(['vn-compare', '--n-grid', '48', "
        "'--energy-list', '5,20', '--threads', '2'])\n"
        f"print(code, {_SCIPY_LOADED})")
    assert out.strip() == "0 []"
