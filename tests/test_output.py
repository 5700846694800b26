"""Artifact rendering: CSV number formatting, JSON reports and the emitter."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import ModalState, ObservationRegion, cli, hum_control, output
from fraclab.config import RunConfig
from fraclab.errors import FraclabError
from fraclab.output import _BLOCK, Emitter, csv_text, json_text

SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 3.0, -42.0, 0.1]


def per_cell(header, rows):
    """Reference rendering: integers via str, every other real via %.17g."""
    cell = lambda v: str(v) if isinstance(v, int) else "%.17g" % float(v)
    return "\n".join([",".join(header)] + [",".join(map(cell, r)) for r in rows]) + "\n"


def test_float_rows_match_per_cell_format():
    rows = [SPECIAL, SPECIAL[::-1]]
    header = [f"c{i}" for i in range(len(SPECIAL))]
    assert csv_text(header, rows) == per_cell(header, rows)
    assert csv_text(header, rows).splitlines()[1] == (
        "0,-0,nan,inf,-inf,4.9406564584124654e-324,1.0000000000000001e+300,3,-42,0.10000000000000001"
    )
    extremes = [[sys.float_info.max, -sys.float_info.min, 1.0 / 3.0]]
    assert csv_text(["a", "b", "c"], extremes) == per_cell(["a", "b", "c"], extremes)


def test_mixed_rows_keep_strings_and_integers():
    rows = [(0.5, 1, 2.5), (-0.0, 7, 0), (1e-3, 16383, 10**16)]
    assert csv_text(["x", "k", "y"], rows) == per_cell(["x", "k", "y"], rows)
    assert csv_text(["x", "k", "y"], rows) == (
        "x,k,y\n0.5,1,2.5\n-0,7,0\n0.001,16383,10000000000000000\n"
    )


def test_prefix_leads_names_and_duplicates_are_refused(tmp_path):
    # two sweep cells writing into one run directory
    first = Emitter(str(tmp_path), prefix="beta0.5_")
    second = Emitter(str(tmp_path), prefix="beta0.6_")
    first.write("a.csv", "1\n")
    first.write("a.svg", "<svg/>\n")
    second.write("a.csv", "2\n")
    assert [name for name, _, _ in first.artifacts] == ["beta0.5_a.csv", "beta0.5_a.svg"]
    assert [name for name, _, _ in second.artifacts] == ["beta0.6_a.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["beta0.5_a.csv", "beta0.5_a.svg", "beta0.6_a.csv"]
    assert (tmp_path / "beta0.6_a.csv").read_text() == "2\n"
    with pytest.raises(FraclabError, match="'beta0.5_a.csv' emitted twice"):
        first.write("a.csv", "1\n")


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
    sizes, buffers = [], set()

    class Recorded:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def readinto(self, buffer):
            sizes.append(len(buffer))
            buffers.add(id(buffer.obj))
            return self.handle.readinto(buffer)

    def recording_open(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return Recorded(handle) if mode == "rb" else handle

    monkeypatch.setattr(output, "open", recording_open, raising=False)
    assert output.verify_manifest(str(tmp_path)) == (True, ["ok       big.csv"])
    # five reads into one reused buffer
    assert sizes == [output._READ] * 5
    assert len(buffers) == 1
    path = tmp_path / "big.csv"
    data = bytearray(path.read_bytes())
    assert len(data) > 3 * output._READ
    data[-5] ^= 1
    path.write_bytes(data)
    assert output.verify_manifest(str(tmp_path)) == (False, ["drift    big.csv"])


@settings(max_examples=60, deadline=None, database=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=width, max_size=width),
            max_size=40,
        ).map(lambda rows: (width, rows))
    ),
    block=st.integers(1, 50),
)
def test_tables_of_any_doubles_match_per_cell(rows, block):
    # a small block size puts block boundaries inside rows and between them;
    # the array keeps its width when it has no rows
    width, rows = rows
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    with mock.patch.object(output, "_BLOCK", block):
        assert csv_text(["a", "b"], table) == per_cell(["a", "b"], rows)


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
    rows = [edges[i : i + 2] for i in range(0, len(edges), 2)]  # an even count
    assert len(rows[-1]) == 2
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


@pytest.mark.parametrize(
    "table",
    [
        [[], [1.5, 2], [], []],
        [[1.0, 2.0], [3.0]],
        np.arange(3.0),
        [],
        np.zeros((2, 0)),
        [[1.0, None]],
        [["1.5", "2"]],
        np.array([[1.0, object()]], dtype=object),
        [[1.0 + 2.0j]],
    ],
    ids=["empty-rows", "ragged", "1-D", "no-rows-no-width", "no-columns", "None", "str", "object", "complex"],
)
def test_table_that_is_not_2d_numeric_is_refused(table):
    with pytest.raises(ValueError):
        csv_text(["x"], table)


def test_text_grows_in_place_as_one_copy():
    # one copy of the text plus one block's temporaries; joining a list of
    # block strings would hold the text twice
    table = np.random.default_rng(0).standard_normal((_BLOCK, 101))  # 101 blocks
    tracemalloc.start()
    try:
        text = csv_text([f"c{i}" for i in range(101)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * len(text)


def test_workspace_carries_nothing_between_blocks_calls_or_threads():
    # a block of short and slow-lane cells right after a block of the
    # longest ones (24 bytes slow, 23 fast), so a row the kernel failed to
    # overwrite would show; four different tables render at once on threads,
    # as sweep cells do, with the interpreter switching threads often
    longest = [-2.2250738585072014e-308, -1.2345678901234567e-100, -0.00012345678901234567, -1234567.8901234567]
    short = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-5, 1e17, 3.0, -42.0, 7.0, 0.5]
    tables = [
        np.vstack([np.resize(longest, (_BLOCK // width, width)), np.resize(short, (_BLOCK // width + 3, width))])
        for width in (8, 16)
    ]
    tables += [table[::-1, ::-1].copy() for table in tables]
    results = [None] * len(tables)
    barrier = threading.Barrier(len(tables), timeout=30)

    def render(i):
        barrier.wait()
        results[i] = csv_text(["c"], tables[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=render, args=(i,)) for i in range(len(tables))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for table, text in zip(tables, results):
        assert text == per_cell(["c"], table.tolist())


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's heap trimming on Linux",
)
def test_render_faults_in_little_more_than_its_text():
    # with the mmap threshold pinned (perfbench pins it), glibc trims the
    # heap top after a block frees more than 128 KiB, and the next block
    # faults those pages back in; `hum`'s control.csv is 1001 x 413
    code = textwrap.dedent(
        """
        import resource
        import numpy as np
        from fraclab.output import csv_text
        table = np.random.default_rng(3).standard_normal((1001, 413))
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            text = csv_text([f"c{i}" for i in range(413)], table)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(faults, -(-len(text) // resource.getpagesize()))
        """
    )
    src = str(Path(output.__file__).resolve().parents[1])
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, pages = map(int, proc.stdout.split())
    assert faults < 3 * pages


def test_json_non_finite_floats_become_strings_at_any_depth():
    nan, inf = float("nan"), float("inf")
    report = {"x": nan, "rows": [[1.5, inf], ({"deep": [-inf]},)], "scalar": np.float64(-inf)}
    assert json.loads(json_text(report)) == {
        "x": "nan",
        "rows": [[1.5, "inf"], [{"deep": ["-inf"]}]],
        "scalar": "-inf",
    }


def test_json_arrays_and_tuples_become_lists():
    report = {
        "constants": np.array([[0.5, np.nan], [2.0, 3.0]]),
        "resolved": np.array([[True, False], [False, True]]),
        "counts": (5, 10),
        "ratio": np.float64(0.25),
    }
    assert json.loads(json_text(report)) == {
        "constants": [[0.5, "nan"], [2.0, 3.0]],
        "resolved": [[True, False], [False, True]],
        "counts": [5, 10],
        "ratio": 0.25,
    }


def test_json_layout_sorts_keys_indents_two_spaces_and_ends_in_a_newline():
    assert json_text({"b": {"z": 1, "a": (True,)}, "a": None}) == (
        '{\n  "a": null,\n  "b": {\n    "a": [\n      true\n    ],\n    "z": 1\n  }\n}\n'
    )


@pytest.mark.parametrize(
    "value", [1j, np.complex128(1 + 2j), np.array([1j])], ids=["complex", "numpy-scalar", "array"]
)
def test_json_refuses_complex_values(value):
    # no report holds a complex value; one that does is a bug, not a {re, im} object
    with pytest.raises(TypeError, match="complex"):
        json_text({"nested": [value]})


def test_json_keeps_non_ascii_text():
    text = json_text({"title": "β = ½, ε → 0, Schrödinger"})
    assert text == '{\n  "title": "β = ½, ε → 0, Schrödinger"\n}\n'


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
        [t] + [v for z in samples.tolist() for v in (z.real, z.imag)]
        for t, samples in zip(result.control_times.tolist(), result.control_samples)
    ]
    assert (out / "control.csv").read_text() == per_cell(header, rows)
