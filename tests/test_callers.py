"""Every function, class and method defined in the package has a caller.

A definition passes when its name is referenced by package code other
than its own definition and __init__.py, when perfbench/ or tools/ name
it (as a name, an attribute, or a part of a dotted string such as the
tracer's "bethe.unwanted_U"), or when UNCALLED lists it with a reason.
Dunder methods are called by the language and pass.

The match is by name alone, so any same-named reference counts: a local
variable or an attribute of another object can hide a function that has
no caller (the local `psi` in BetheSystem._add_corrections did so for
the former bethe.psi).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heun_racah"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# name -> why it stays without a caller in the package, perfbench or tools
UNCALLED = {
    "draw_racah_params": "the seeded Racah-parameter draw the tests share",
    "draw_rho": "the seeded rho draw the tests share",
    "vector_residual": "the one-vector reference that core.stack_residuals is held to",
}


def referenced(tree, strings=False) -> list[str]:
    """Every name and attribute read in tree and, with strings, each part of a
    string constant that is a dotted name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            out.extend(node.value.split("."))
    return out


def definitions():
    """(module, name, references to name inside its own definition) for each
    function, class and method of the package, and the package's references."""
    defs, refs = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        refs.update(referenced(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = referenced(node).count(node.name)
                defs.append((path.stem, node.name, own))
    return defs, refs


def test_every_definition_has_a_caller():
    defs, refs = definitions()
    outside = {name for folder in ("perfbench", "tools")
               for path in sorted((ROOT / folder).glob("*.py"))
               for name in referenced(ast.parse(path.read_text()), strings=True)}
    uncalled = [f"{module}.{name}" for module, name, own in defs
                if not (name.startswith("__") and name.endswith("__"))
                and refs[name] == own and name not in outside and name not in UNCALLED]
    assert not uncalled, uncalled


def test_every_listed_name_is_defined():
    defs, _ = definitions()
    assert set(UNCALLED) <= {name for _, name, _ in defs}
