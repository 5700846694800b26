"""Artifact rendering: CSV number formatting and the emitter."""

import hashlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import ModalState, ObservationRegion, cli, hum_control, output
from fraclab.config import RunConfig
from fraclab.errors import FraclabError
from fraclab.output import _BLOCK, Emitter, csv_text

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


def test_directory_emitter_keeps_entries_not_texts(tmp_path):
    # three slices, each edge falling right after a two-byte character
    text = ("x" * (output._SLICE - 2) + "\u03b2\n") * 3
    emitter = Emitter(directory=str(tmp_path))
    emitter.write("a.txt", text)
    data = (tmp_path / "a.txt").read_bytes()
    assert data == text.encode("utf-8")
    assert emitter.artifacts == [("a.txt", hashlib.sha256(data).hexdigest(), len(data))]
    with pytest.raises(FraclabError, match="emitted twice"):
        emitter.write("a.txt", text)


def test_verify_hashes_in_bounded_reads(tmp_path, monkeypatch):
    # a file of four reads, the last one short; one byte changed in that
    # last read is drift
    text = "0123456789\n" * ((3 * output._READ + 1000) // 11)
    emitter = Emitter(directory=str(tmp_path))
    emitter.write("big.csv", text)
    output.write_manifest(emitter, "test", {}, "0")
    sizes = []

    class Recorded:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def read(self, size=-1):
            sizes.append(size)
            return self.handle.read(size)

    def recording_open(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return Recorded(handle) if mode == "rb" else handle

    monkeypatch.setattr(output, "open", recording_open, raising=False)
    assert output.verify_manifest(str(tmp_path)) == (True, ["ok       big.csv"])
    assert sizes == [output._READ] * 5
    path = tmp_path / "big.csv"
    data = bytearray(path.read_bytes())
    assert len(data) > 3 * output._READ
    data[-5] ^= 1
    path.write_bytes(data)
    assert output.verify_manifest(str(tmp_path)) == (False, ["drift    big.csv"])


@settings(max_examples=60, deadline=None, database=None)
@given(
    rows=st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6), max_size=40),
    block=st.integers(1, 50),
)
def test_ragged_rows_of_any_doubles_match_per_cell(rows, block):
    # a small block size puts block boundaries inside rows and between them
    with mock.patch.object(output, "_BLOCK", block):
        assert csv_text(["a", "b"], rows) == per_cell(["a", "b"], rows)


def _neighbours(x, steps=2):
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def test_edge_values_render_as_percent_format():
    edges = [y for k in range(-6, 19) for x in (10.0**k, -(10.0**k)) for y in _neighbours(x)]
    edges += [99999999999999984.0, 1e17, float(10**16), -0.0]
    rows = [edges[i : i + 7] for i in range(0, len(edges), 7)]
    assert csv_text(["c"], rows) == per_cell(["c"], rows)
    for value in edges:  # alone, so a block may hold nothing but such a cell
        assert csv_text(["c"], [[value]]) == per_cell(["c"], [[value]])
    pinned = {
        1000000000000000.25: "1000000000000000.2",  # ties round half to even
        1000000000000000.75: "1000000000000000.8",
        9.999999999999999e-05: "9.9999999999999991e-05",
        99999999999999984.0: "99999999999999984",
        1e17: "1e+17",
        10**16: "10000000000000000",
        -0.0: "-0",
    }
    for value, text in pinned.items():
        assert csv_text(["c"], [[value]]) == f"c\n{text}\n"


@pytest.mark.parametrize("shift", [-1, 1])
def test_exponent_estimate_off_by_one_falls_back_to_percent_format(monkeypatch, shift):
    # the kernel reads the decimal exponent off log10; a libm that rounds
    # across a power of ten must cost speed, never a digit
    rng = np.random.default_rng(5)
    rows = (rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-4, 17, (40, 5))).tolist()
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert csv_text(["c"], rows) == per_cell(["c"], rows)


def test_array_renders_as_its_list():
    rng = np.random.default_rng(17)
    table = rng.standard_normal((2 * _BLOCK // 5 + 3, 5)) * 10.0 ** rng.integers(-8, 20, (2 * _BLOCK // 5 + 3, 5))
    table[::7, 2] = 0.0
    header = list("abcde")
    assert csv_text(header, table) == csv_text(header, table.tolist()) == per_cell(header, table.tolist())


def test_empty_rows_stay_empty_lines():
    rows = [[], [1.5, 2], [], []]
    assert csv_text(["x"], rows) == per_cell(["x"], rows) == "x\n\n1.5,2\n\n\n"
    assert csv_text(["x"], np.zeros((2, 0))) == "x\n\n\n"


def test_hum_control_csv_matches_per_cell(tmp_path):
    out = tmp_path / "hum"
    assert cli.main(["hum", "--n", "64", "--modes", "5", "--out", str(out), "--no-timestamp"]) == 0
    cfg = RunConfig().hum
    spectrum = cli._spectrum_for(cfg.beta, 64, 5)
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    state = ModalState(coefficients=cli._make_datum(cfg.datum, 5, cfg.seed), spectrum=spectrum)
    result = hum_control(state, region, cfg.T)
    idx = region.node_indices(spectrum.grid)
    header = ["t"] + [f"{part}_{i + 1}" for i in idx for part in ("re", "im")]
    rows = [
        [j * result.control_dt] + [v for z in samples.tolist() for v in (z.real, z.imag)]
        for j, samples in enumerate(result.control_samples)
    ]
    assert (out / "control.csv").read_text() == per_cell(header, rows)
