import ast
import os
import pathlib
import subprocess
import sys

import escatter


def _bound_public_names() -> set[str]:
    """Names that escatter/__init__.py itself binds, by import or by
    assignment, other than private ones."""
    tree = ast.parse(pathlib.Path(escatter.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
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


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this package."""
    src = str(pathlib.Path(escatter.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


_SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


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
