"""Print the two sizes of the package source that ROADMAP.md tracks.

    python3 tools/src_lines.py [--root DIR]

Over src/heun_racah/*.py of DIR (default: this checkout) it prints the raw
line count, as `cat src/heun_racah/*.py | wc -l` gives it, and the code
lines: the lines that hold a token outside docstrings, comments and
blanks.  A docstring is a string statement that comes first in a module,
class or function body.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of source that hold a token outside docstrings and comments."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(root: Path) -> tuple[int, int]:
    """(raw lines, code lines) of root's src/heun_racah/*.py."""
    raw = code = 0
    for path in sorted((root / "src" / "heun_racah").glob("*.py")):
        source = path.read_text()
        raw += source.count("\n")
        code += code_lines(source)
    return raw, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source checkout (default: this one)")
    raw, code = count(ap.parse_args(argv).root)
    print(f"raw lines: {raw}")
    print(f"code lines (no docstrings, comments or blanks): {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
