"""Properties of the package source itself."""

import ast
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
