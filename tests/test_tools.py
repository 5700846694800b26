"""The repository tools under tools/, loaded by path."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment counts as code


def area(r):
    """Function docstring."""

    # another comment
    return math.pi * r * r


class Shape:
    """Class docstring,
    over two lines."""

    BANNER = """a multi-line string
that is not a docstring
counts in full"""
'''


def test_count_lines_leaves_out_docstrings_comments_and_blanks():
    # code lines: import, def, return, class, and the three lines of BANNER
    assert load("count_lines").count(SNIPPET) == (21, 7)
