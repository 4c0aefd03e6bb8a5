"""Each pole is stated by its formula: no hand-kept |denominator| checks.

Every pole-bearing denominator goes through core.guard, so this scan of
the package's modules fails when one compares abs(...) below the pole
floor by hand.  Its one allowed exception is heun.canonicalize, whose two
input checks raise CanonicalizationError, not a pole error.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heun_racah"
FLOOR_NAMES = {"POLE_FLOOR", "DENOM_FLOOR", "_floor"}
ALLOWED = Counter({("heun", "canonicalize"): 2})


def _is_abs(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "abs"


def _is_floor(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in FLOOR_NAMES


def hand_pole_checks(path: Path) -> Counter:
    """(module, enclosing function) of each `abs(...) < floor` comparison."""
    found = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if (isinstance(op, ast.Lt) and _is_abs(left) and _is_floor(right)) or \
                        (isinstance(op, ast.Gt) and _is_floor(left) and _is_abs(right)):
                    found[(path.stem, func)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_core_compares_a_denominator_with_the_floor():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "core":
            found += hand_pole_checks(path)
    assert found == ALLOWED


def test_scan_sees_both_comparison_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(u):\n"
                      "    if abs(u - 1) < POLE_FLOOR or core.POLE_FLOOR > abs(u):\n"
                      "        raise ValueError\n"
                      "    return abs(u) > POLE_FLOOR\n")
    assert hand_pole_checks(sample) == Counter({("sample", "f"): 2})
