"""The package's modules import each other at the top, without a cycle.

A function-local import of a package module hides an import cycle, so
the first scan fails when a function imports one.  The second builds the
graph of package imports, module-level and function-local alike, and
fails on a cycle.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heun_racah"
PACKAGE = "heun_racah"


def _is_package_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == PACKAGE for alias in node.names)
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


def imported_modules(path: Path, modules: set[str]) -> set[str]:
    """The package modules that the module at path imports, at any depth.

    A name imported from the package itself is the module of that name,
    or else the package's __init__, which holds it.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not _is_package_import(node):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith(PACKAGE + ".")}
            continue
        parts = (node.module or "").split(".")[0 if node.level else 1:]
        if parts and parts[0]:
            found.add(parts[0])
        else:
            found |= {alias.name if alias.name in modules else "__init__"
                      for alias in node.names}
    return found - {path.stem}


def import_graph(src: Path) -> dict[str, set[str]]:
    """Each module of the package in src, mapped to the package modules it imports."""
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    return {path.stem: imported_modules(path, modules) & modules for path in paths}


def import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a list of modules, or None."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def test_no_function_imports_a_package_module():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= local_package_imports(path)
    assert not found, sorted(found)


def test_package_import_graph_is_acyclic():
    graph = import_graph(SRC)
    assert {"core", "racah", "heun", "bethe", "dynamical", "solver", "cli"} <= set(graph)
    assert import_cycle(graph) is None, " -> ".join(import_cycle(graph))


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
    assert imported_modules(sample, {"core", "bethe", "heun"}) == {"core", "bethe", "heun"}


@pytest.mark.parametrize("line, target", [
    ("from . import b\n", "b"),
    ("from heun_racah import b\n", "b"),
    ("from heun_racah import name\n", "__init__"),
    ("from heun_racah.b import name\n", "b"),
])
def test_graph_sees_a_cycle_through_a_function_local_import(tmp_path, line, target):
    (tmp_path / "__init__.py").write_text("from .a import name\n")
    (tmp_path / "a.py").write_text("def f():\n    " + line)
    (tmp_path / "b.py").write_text("from .a import f\n")
    graph = import_graph(tmp_path)
    assert graph["a"] == {target}
    assert import_cycle(graph) is not None
