"""Properties of the library source itself."""

import ast
from pathlib import Path

import mck

SOURCE = Path(mck.__file__).resolve().parent

# The functions that may name Fraction, because their values are true
# quotients: the Euler sum, rotation offsets, the normalization of an
# elimination's answer and the CLI's printing of a rational.  Module
# level covers the import.  The handle algebra proper (homology_model,
# _poincare, check_stab_action, the polytope certificate) runs over int.
FRACTION_ALLOWED = {
    ("complex_builder.py", "<module>"),
    ("complex_builder.py", "EulerReport"),
    ("complex_builder.py", "euler_characteristic"),
    ("twist_algebra.py", "<module>"),
    ("twist_algebra.py", "_circle_offset"),
    ("linalg.py", "<module>"),
    ("linalg.py", "_quotient"),
    ("linalg.py", "solve_square"),
    ("cli.py", "<module>"),
    ("cli.py", "_frac_str"),
}


def _fraction_uses(path):
    """(file, innermost enclosing def or class) of every name `Fraction`."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append((path.name, scope))
        if isinstance(node, ast.alias) and node.name == "Fraction":
            found.append((path.name, scope))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_library_has_no_assert():
    # `python -O` strips assert statements; the library raises instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_fraction_only_where_values_are_quotients():
    uses = {use for path in sorted(SOURCE.glob("*.py"))
            for use in _fraction_uses(path)}
    assert uses - FRACTION_ALLOWED == set()
    # each allowance still names a real use, so the list cannot go stale
    assert FRACTION_ALLOWED - uses == set()
