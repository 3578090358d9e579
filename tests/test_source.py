"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

import realcat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(Path(realcat.__file__).parent.glob("*.py"))
# the package itself and what the `test` extra of pyproject.toml lists;
# written out, as tomllib needs Python 3.11 and CI runs 3.10 too
TEST_EXTRA = {"realcat", "pytest", "hypothesis"}


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert``; the package states its checks as
    raises and its facts as proofs, so it behaves the same under -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(PACKAGE) > 5 and found == []


def _absolute_imports(paths=PACKAGE):
    """(file name, line, top-level module) of each absolute import in the
    files, by default the package's source."""
    for path in paths:
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


def test_tests_and_tools_import_only_the_test_extra_and_the_standard_library():
    """A test or a tool imports the standard library, realcat, pytest or
    hypothesis, so a package that the `test` extra does not list cannot
    come in unnoticed."""
    paths = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))
    found = list(_absolute_imports(paths))
    outside = [
        f"{f}:{line} {name}"
        for f, line, name in found
        if name not in sys.stdlib_module_names and name not in TEST_EXTRA
    ]
    assert len(paths) > 10 and outside == []


def test_no_module_of_the_package_imports_dataclasses():
    """``import dataclasses`` loads ``inspect`` and with it ``ast``, ``dis``
    and ``tokenize``: several milliseconds of each CLI process.  The
    value classes write their methods out (``values.Record``)."""
    found = list(_absolute_imports())
    named = [f"{f}:{line}" for f, line, name in found if name == "dataclasses"]
    assert len(found) > 5 and named == []


# what the kernels compute a norm with: an oracle that called one of
# them would check a kernel against itself
KERNEL_NAMES = {
    "tnorm_eval",
    "tnorm_residual",
    "sqrt_with",
    "kernel_domain",
    "GridDomain",
}


def test_the_oracles_compute_no_norm_with_the_library():
    """tests/test_closure.py checks the kernels against oracles that
    read a norm only as its block list: it imports none of realcat's
    t-norm kernels and reads no ``._and``, the Fraction domain's &."""
    path = ROOT / "tests" / "test_closure.py"
    text = path.read_text()
    tree = ast.parse(text, str(path))
    found = [
        f"{path.name}:{alias.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("realcat")
        for alias in node.names
        if alias.name in KERNEL_NAMES
    ]
    found += [
        f"{path.name}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_NAMES | {"_and"}
    ]
    assert found == [] and "def oracle_and" in text
