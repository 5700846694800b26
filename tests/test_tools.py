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


def test_count_lines_reports_each_compile_peak(capsys):
    count_lines = load("count_lines")
    assert 0 < count_lines.compile_peak(SNIPPET) < count_lines.compile_peak(SNIPPET * 50)
    assert count_lines.main([]) == 0
    header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["module", "lines", "code", "compile", "KB"]
    *modules, total = rows
    assert "output.py" in [row[0] for row in modules]
    assert total[0] == "total" and int(total[3]) == max(int(row[3]) for row in modules) > 0
