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


def test_same_outputs_reports_the_largest_relative_change_of_a_json_file():
    same_outputs = load("same_outputs")
    before = b'{"a": [1.0, 2.0, NaN], "b": {"c": 4.0, "flag": true}, "name": "x1"}'
    after = b'{"a": [1.0, 2.5, NaN], "b": {"c": -4.0, "flag": false}, "name": "x2"}'
    # 2 -> 2.5 moves by 0.2 and 4 -> -4 by 2; booleans and strings are no numbers
    assert same_outputs.largest_change("r.json", before, after) == (
        "r.json: largest relative change 2 at b.c"
    )
    assert same_outputs.largest_change("r.json", before, before.replace(b"x1", b"x3")) == (
        "r.json: its numbers are the same"
    )


def test_same_outputs_reads_csv_fields_and_flags_numbers_that_do_not_pair_up():
    same_outputs = load("same_outputs")
    before = b"t,re_1\n0,1.0\n0.5,1e-300\n"
    after = b"t,re_1\n0,1.0\n0.5,1.5e-300\n"
    assert same_outputs.numbers("c.csv", before) == [
        ("line 2 field 1", 0.0), ("line 2 field 2", 1.0), ("line 3 field 1", 0.5), ("line 3 field 2", 1e-300)
    ]
    assert same_outputs.largest_change("c.csv", before, after) == (
        "c.csv: largest relative change 0.33 at line 3 field 2"
    )
    assert same_outputs.largest_change("c.csv", before, after + b"1,inf\n") == (
        "c.csv: its numbers do not pair up"
    )
    assert same_outputs.largest_change("c.csv", before + b"1,2\n", after + b"1,inf\n") == (
        "c.csv: largest relative change inf at line 4 field 2"
    )
