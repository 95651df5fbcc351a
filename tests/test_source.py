"""Properties of the library source itself."""

import ast
from pathlib import Path

import mck

SOURCE = Path(mck.__file__).resolve().parent


def test_library_has_no_assert():
    # `python -O` strips assert statements; the library raises instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
