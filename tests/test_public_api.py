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


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the package has one quadrature rule of its own, and only the
    # meridian kernel needs scipy.special (for i0e): a cold CLI start
    # must pay for importing neither
    src = str(pathlib.Path(escatter.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, escatter.cli; "
             "print([m for m in ('scipy.integrate', 'scipy.special') "
             "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
