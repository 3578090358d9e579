"""The README's ``pycon`` examples run as doctests.

``python -m doctest README.md`` reads a closing fence as expected
output, so each fenced block is handed to doctest on its own."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _pycon_blocks():
    """Each fenced pycon block, with the number of README lines before
    it, named by its order so that an edit above it keeps its name."""
    text = README.read_text()
    matches = re.finditer(r"^```pycon\n(.*?)^```", text, re.M | re.S)
    for n, m in enumerate(matches, 1):
        lineno = text.count("\n", 0, m.start(1))
        yield pytest.param(lineno, m.group(1), id=f"example-{n}")


BLOCKS = list(_pycon_blocks())


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("lineno, block", BLOCKS)
def test_readme_example(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, README.name, str(README), lineno)
    report = []
    results = doctest.DocTestRunner().run(test, out=report.append)
    assert results.attempted and not results.failed, "".join(report)
