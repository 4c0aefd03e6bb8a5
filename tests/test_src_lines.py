"""tools/src_lines.py counts the package source as ROADMAP.md tracks it."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_LINES = ROOT / "tools" / "src_lines.py"


def test_raw_count_is_wc():
    run = subprocess.run([sys.executable, str(SRC_LINES)], capture_output=True, text=True,
                         check=True)
    raw, code = map(int, re.fullmatch(
        r"raw lines: (\d+)\ncode lines \(no docstrings, comments or blanks\): (\d+)\n",
        run.stdout).groups())
    wc = subprocess.run("cat src/heun_racah/*.py | wc -l", shell=True, cwd=ROOT,
                        capture_output=True, text=True, check=True)
    assert raw == int(wc.stdout) and 0 < code < raw


def test_code_lines_skip_docstrings_comments_and_blanks():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = '''"""Module
docstring."""

import os  # a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # a comment line
        "a string statement that is not first"
        return (1,
                2)
'''
    # import, class, def, the later string statement and the two lines of return
    assert module.code_lines(source) == 6
