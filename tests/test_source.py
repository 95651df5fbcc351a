"""Properties of the library source itself."""

import ast
import os
import subprocess
import sys
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


def _wrapped_attributes():
    """The attribute names that `bench/tracing.py` wraps, read off its
    `WRAPPED` table without importing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "WRAPPED"):
            return {attr for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("no WRAPPED table in %s" % path)


def test_every_library_definition_is_used():
    # a function or class that no library code names, that the package
    # does not export and that the tracer does not wrap is test-only or
    # dead code; dunders are called by the language
    defined, named = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    kept = named | set(mck.__all__) | _wrapped_attributes()
    unused = [(file, name) for file, name in defined
              if name not in kept
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def test_cli_import_loads_no_process_pool():
    # enumeration runs in one process; `concurrent.futures.process` pulls in
    # `multiprocessing`, about 3 MB of RSS that every run would pay
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mck.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
