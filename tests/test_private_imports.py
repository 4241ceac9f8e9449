"""Layering rules, checked on the source with ``ast``.

* A test imports no ``_``-prefixed name from ``laguerre_intertwine.cli`` or
  ``laguerre_intertwine.experiments``: the tests and the CLI share the
  experiments through their public names.
* A module of the package imports no ``_``-prefixed name from another
  module of the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "laguerre_intertwine"
SHARED_WITH_TESTS = {f"{PACKAGE}.cli", f"{PACKAGE}.experiments"}


def private_imports(source: str, in_package: bool) -> list[str]:
    """``module:name`` of every private name the source imports.

    In the package, a relative import or one from the package counts; in a
    test, an import from the CLI or the experiments module.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if in_package:
            watched = node.level > 0 or module == PACKAGE or module.startswith(PACKAGE + ".")
        else:
            watched = node.level == 0 and module in SHARED_WITH_TESTS
        if watched:
            prefix = "." * node.level + module
            found += [f"{prefix}:{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def _violations(paths, in_package: bool) -> dict[str, list[str]]:
    out = {}
    for path in paths:
        names = private_imports(path.read_text(), in_package)
        if names:
            out[str(path.relative_to(ROOT))] = names
    return out


def test_checker_finds_private_imports():
    package_src = (
        "from .kernels import KernelSpec, _secular_roots\n"
        "def f():\n"
        "    from laguerre_intertwine.numerics import _helper\n"
        "from __future__ import annotations\n"
    )
    assert private_imports(package_src, in_package=True) == [
        ".kernels:_secular_roots", "laguerre_intertwine.numerics:_helper",
    ]
    test_src = (
        "from laguerre_intertwine.cli import main, _fmt\n"
        "from laguerre_intertwine.experiments import _one\n"
        "from laguerre_intertwine.kernels import _secular_roots\n"
    )
    assert private_imports(test_src, in_package=False) == [
        "laguerre_intertwine.cli:_fmt", "laguerre_intertwine.experiments:_one",
    ]


def test_tests_import_no_private_cli_or_experiments_names():
    assert _violations(sorted((ROOT / "tests").glob("*.py")), in_package=False) == {}


def test_package_modules_import_no_private_names_of_each_other():
    paths = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    assert len(paths) > 5
    assert _violations(paths, in_package=True) == {}
