"""Package modules are imported at the top of a module, not inside functions.

A function-local import of a package module hides an import cycle.  This
scan of the package's modules fails when a function imports one.  Its one
allowed exception is dynamical, whose relation-catalog samplers import
heun and bethe, which themselves import dynamical, until the catalog moves
to a module of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heun_racah"
ALLOWED = {"dynamical"}


def _is_package_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "heun_racah"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "heun_racah" for alias in node.names)
    return False


def local_package_imports(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing function) of each package import inside a function."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and _is_package_import(node):
            found.add((path.stem, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_dynamical_imports_package_modules_inside_functions():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= local_package_imports(path)
    assert {module for module, _ in found} <= ALLOWED, sorted(found)


def test_scan_sees_relative_and_absolute_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .core import guard\n"
                      "import numpy as np\n"
                      "def f():\n"
                      "    from .bethe import psi\n"
                      "    import numpy\n"
                      "    def g():\n"
                      "        import heun_racah.heun\n"
                      "    return g\n")
    assert local_package_imports(sample) == {("sample", "f"), ("sample", "g")}
