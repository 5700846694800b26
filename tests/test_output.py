"""Artifact rendering: CSV number formatting."""

import sys

from fraclab.output import csv_text, format_number

SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 3.0, -42.0, 0.1]


def per_cell(header, rows):
    return "\n".join([",".join(header)] + [",".join(map(format_number, r)) for r in rows]) + "\n"


def test_float_rows_match_per_cell_format():
    rows = [SPECIAL, SPECIAL[::-1], [sys.float_info.max, -sys.float_info.min, 1.0 / 3.0]]
    header = [f"c{i}" for i in range(len(SPECIAL))]
    assert csv_text(header, rows) == per_cell(header, rows)
    assert csv_text(header, rows).splitlines()[1] == (
        "0,-0,nan,inf,-inf,4.9406564584124654e-324,1.0000000000000001e+300,3,-42,0.10000000000000001"
    )


def test_mixed_rows_keep_strings_and_integers():
    rows = [(0.5, 1, 2.5), (-0.0, 7, 0)]
    assert csv_text(["x", "k", "y"], rows) == "x,k,y\n0.5,1,2.5\n-0,7,0\n"
