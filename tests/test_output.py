"""Artifact rendering: CSV number formatting and the emitter."""

import sys

import pytest

from fraclab.errors import FraclabError
from fraclab.output import Emitter, csv_text

SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 3.0, -42.0, 0.1]


def per_cell(header, rows):
    """Reference rendering: integers via str, every other real via %.17g."""
    cell = lambda v: str(v) if isinstance(v, int) else "%.17g" % float(v)
    return "\n".join([",".join(header)] + [",".join(map(cell, r)) for r in rows]) + "\n"


def test_float_rows_match_per_cell_format():
    rows = [SPECIAL, SPECIAL[::-1], [sys.float_info.max, -sys.float_info.min, 1.0 / 3.0]]
    header = [f"c{i}" for i in range(len(SPECIAL))]
    assert csv_text(header, rows) == per_cell(header, rows)
    assert csv_text(header, rows).splitlines()[1] == (
        "0,-0,nan,inf,-inf,4.9406564584124654e-324,1.0000000000000001e+300,3,-42,0.10000000000000001"
    )


def test_mixed_rows_keep_strings_and_integers():
    rows = [(0.5, 1, 2.5), (-0.0, 7, 0), (1e-3, 16383, 10**16)]
    assert csv_text(["x", "k", "y"], rows) == per_cell(["x", "k", "y"], rows)
    assert csv_text(["x", "k", "y"], rows) == (
        "x,k,y\n0.5,1,2.5\n-0,7,0\n0.001,16383,10000000000000000\n"
    )


def test_absorb_prefixes_names_and_refuses_duplicates():
    buffer = Emitter()
    buffer.write("a.csv", "1\n")
    buffer.write("a.svg", "<svg/>\n")
    target = Emitter()
    target.absorb(buffer, "beta0.5_")
    assert target.artifacts == [("beta0.5_a.csv", "1\n"), ("beta0.5_a.svg", "<svg/>\n")]
    target.absorb(buffer, "beta0.6_")
    assert len(target.artifacts) == 4
    with pytest.raises(FraclabError, match="emitted twice"):
        target.absorb(buffer, "beta0.5_")
