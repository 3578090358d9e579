"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

import realcat


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert``; the package states its checks as
    raises and its facts as proofs, so it behaves the same under -O."""
    modules = sorted(Path(realcat.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) > 5 and found == []


def _absolute_imports():
    """(file name, line, top-level module) of each absolute import in the
    package's source."""
    for path in sorted(Path(realcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in sorted({name.partition(".")[0] for name in names}):
                yield path.name, node.lineno, name


def test_the_package_imports_only_itself_and_the_standard_library():
    """The runtime stays stdlib-only: every import in the package is
    relative or names a module of the running interpreter's standard
    library (``sys.stdlib_module_names``, Python 3.10 and later)."""
    found = list(_absolute_imports())
    outside = [
        f"{f}:{line} {name}"
        for f, line, name in found
        if name not in sys.stdlib_module_names
    ]
    assert len(found) > 5 and outside == []


def test_no_module_of_the_package_imports_dataclasses():
    """``import dataclasses`` loads ``inspect`` and with it ``ast``, ``dis``
    and ``tokenize``: several milliseconds of each CLI process.  The
    value classes write their methods out (``values.Record``)."""
    found = list(_absolute_imports())
    named = [f"{f}:{line}" for f, line, name in found if name == "dataclasses"]
    assert len(found) > 5 and named == []
