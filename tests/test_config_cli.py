"""Config parsing and the command-line interface, end to end."""

import csv
import filecmp
import hashlib
import json
import math
import subprocess
import sys
import weakref
from dataclasses import asdict, fields

import numpy as np
import pytest

from fraclab import (
    Grid,
    ModalState,
    NumericalError,
    ObservationRegion,
    assemble_operator,
    compute_spectrum,
    hum_control,
    region_mass_matrix,
)
from fraclab import cli
from fraclab import control
from fraclab import identity
from fraclab.config import (
    _PARSERS,
    _SECTION_TYPES,
    MAX_NODES,
    ConfigError,
    RunConfig,
    _parse_command,
    load_config,
    override_section,
    parse_config,
)

FRACLAB = [sys.executable, "-m", "fraclab.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        FRACLAB + list(args), capture_output=True, text=True, cwd=cwd
    )


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_sections_and_values(self):
        text = """
out = results

[spectrum]
beta = 0.75
n = 256
modes = 12

[hum]
beta = 0.6
T = 2.5
control_csv = no
datum = zero
"""
        cfg = parse_config(text)
        assert cfg.out == "results"
        assert cfg.spectrum.beta == 0.75
        assert cfg.spectrum.n == 256
        assert cfg.spectrum.modes == 12
        assert cfg.hum.beta == 0.6
        assert cfg.hum.T == 2.5
        assert cfg.hum.control_csv is False
        assert cfg.hum.datum == "zero"

    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.spectrum.beta == 0.5
        assert cfg.spectrum.n == 1024
        assert cfg.observability.mode_counts == (5, 10, 20, 40)
        assert cfg.sweep.betas == (0.3, 0.5, 0.75)
        assert cfg.out is None

    def test_global_beta_reaches_list_sections(self):
        cfg = parse_config("beta = 0.4\n")
        assert cfg.spectrum.beta == 0.4
        assert cfg.observability.betas == (0.4,)
        assert cfg.sharpness.betas == (0.4,)
        assert cfg.sweep.betas == (0.4,)

    def test_global_modes_reaches_mode_counts(self):
        # the prelude maps modes as the --modes flag does
        cfg = parse_config("modes = 7\n")
        assert cfg.spectrum.modes == 7
        assert cfg.observability.mode_counts == (7,)
        assert cfg.sharpness.mode_counts == (7,)
        assert cfg.sweep == RunConfig().sweep

    def test_list_values(self):
        cfg = parse_config(
            "[observability]\nbetas = 0.3, 0.5\nmode_counts = 2, 4, 8\n"
        )
        assert cfg.observability.betas == (0.3, 0.5)
        assert cfg.observability.mode_counts == (2, 4, 8)

    def test_datum_mode_list(self):
        cfg = parse_config("[pohozaev]\ndatum = 1,3\n")
        assert cfg.pohozaev.datum == "1,3"

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("[spectrum]\nbeta = 1.5\n", "beta", 2),
            ("[spectrum]\nwidth = 3\n", "unknown key", 2),
            ("[conduction]\n", "unknown section", 1),
            ("[spectrum]\nn = 64\nn = 128\n", "duplicate", 3),
            ("[spectrum]\nn = sixty\n", "n", 2),
            ("[pohozaev]\ntime_intervals = 7\n", "unknown key", 2),
            ("[evolve]\nequation = heat\n", "equation", 2),
            ("[evolve]\ndatum = prime\n", "datum", 2),
            ("[observability]\nmode_counts = 8, 4\n", "mode_counts", 2),
            ("betas = 0.5,,0.75\n", "betas must be a comma list without empty entries, got 0.5,,0.75", 1),
            ("betas = 0.5,\n", "betas must be a comma list without empty entries, got 0.5,", 1),
            ("[sweep]\nbetas = ,0.4\n", "betas must be a comma list without empty entries, got ,0.4", 2),
            ("mode_counts = 5,,10\n", "mode_counts must be a comma list without empty entries, got 5,,10", 1),
            ("[spectrum]\nbeta\n", "expected", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert fragment.lower() in str(info.value).lower()
        assert f"line {line}" in str(info.value)

    def test_keys_map_exactly_the_section_fields(self):
        # a field without a key cannot be set; a key without a field is stale
        declared = {f.name for cls in _SECTION_TYPES.values() for f in fields(cls)}
        assert set(_PARSERS) == declared

    def test_manifest_echoes_file_keys(self, tmp_path):
        out = tmp_path / "o"
        args = ["hum", "--T", "2", "--n", "64", "--modes", "4", "--out", str(out), "--no-timestamp"]
        assert cli.main(args) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo["T"] == 2.0
        assert "horizon" not in echo
        assert echo["beta"] == 0.6

    def test_override_section(self):
        cfg = parse_config("")
        updated = override_section(cfg, "hum", beta=0.7, T=3.0, seed=None)
        assert updated.hum.beta == 0.7
        assert updated.hum.T == 3.0
        # None means "flag not given": the config value stays
        assert updated.hum.seed == 0
        with_lists = override_section(cfg, "observability", beta=0.3, modes=7)
        assert with_lists.observability.betas == (0.3,)
        assert with_lists.observability.mode_counts == (7,)

    def test_load_config_skips_a_byte_order_mark(self, tmp_path):
        text = "[hum]\nT = 2\nn = 64\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(marked) == load_config(plain)
        assert load_config(marked).hum.T == 2.0

    def test_load_config_rejects_binary(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe\x00broken")
        with pytest.raises(ConfigError):
            load_config(path)


class TestCliSpectrum:
    def test_classical_three_point_table(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "spectrum", "--beta", "1.0", "--n", "3", "--modes", "3",
            "--out", str(out), "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out / "spectrum.csv")
        assert header == [
            "k", "lambda_numeric", "lambda_asymptotic", "gap_numeric", "gap_asymptotic",
        ]
        assert len(rows) == 3
        lam = [float(r[1]) for r in rows]
        h = 0.5
        exact = [
            (2.0 / h**2) * (1.0 - math.cos(k * math.pi / 4.0)) for k in (1, 2, 3)
        ]
        np.testing.assert_allclose(lam, exact, rtol=1e-12)
        # the final row has no successor, so its numeric gap is empty of
        # meaning and stored as nan
        assert rows[-1][3] == "nan"
        assert (out / "spectrum.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        assert names == {"spectrum.csv", "spectrum.svg"}
        assert all(len(f["sha256"]) == 64 for f in manifest["files"])
        assert "timestamp" not in manifest

    def test_gaps_row_count(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "gaps", "--beta", "0.5", "--n", "64", "--modes", "6",
            "--out", str(out), "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out / "gaps.csv")
        assert len(rows) == 5
        # the asymptotic gap at the half-order point is pi/2 for every k
        asym = [float(r[-1]) for r in rows]
        np.testing.assert_allclose(asym, math.pi / 2.0, atol=1e-12)

    def test_modes_beyond_grid_is_config_error(self, tmp_path):
        proc = run_cli(
            "spectrum", "--n", "8", "--modes", "9", "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert "modes" in proc.stderr

    def test_table_span_beyond_grid_names_mode_counts(self, tmp_path, capsys):
        # [sharpness] has no `modes` key; the message names the key it has
        assert cli.main(["sharpness", "--n", "8", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fraclab: config error: mode_counts ")
        assert "n = 8" in err


def tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestCliDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--n", "32", "--modes", "4"],
            ["gaps", "--n", "32", "--modes", "4"],
            ["evolve", "--beta", "0.5", "--n", "64", "--modes", "6", "--T", "1", "--seed", "3"],
            ["observability", "--n", "64"],
            ["sharpness", "--n", "64"],
            ["hum", "--n", "64", "--modes", "4", "--seed", "3"],
            ["pohozaev", "--n", "64", "--modes", "4"],
            ["sweep", "--n", "32", "--modes", "4", "--jobs", "2"],
        ],
        ids=lambda args: args[0],
    )
    def test_identical_bytes_without_timestamps(self, tmp_path, args):
        a, b = tmp_path / "a", tmp_path / "b"
        runs = [
            subprocess.Popen(
                FRACLAB + args + ["--no-timestamp", "--out", str(out)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for out in (a, b)
        ]
        for run in runs:
            _, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_one_stamp_per_run(self, tmp_path, monkeypatch):
        # the SVG comments of every cell and the manifest carry the run's
        # single start stamp
        stamp = "2001-02-03T04:05:06Z"
        monkeypatch.setattr(cli, "utc_stamp", lambda: stamp)
        out = tmp_path / "o"
        args = ["sweep", "--n", "16", "--modes", "2", "--jobs", "2", "--out", str(out)]
        assert cli.main(args) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 3
        for svg in svgs:
            assert f"<!-- generated {stamp} -->" in svg.read_text()
        assert json.loads((out / "manifest.json").read_text())["timestamp"] == stamp

    def test_prelude_modes_matches_the_flag(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("modes = 7\nn = 64\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["observability", "--config", str(cfg), "--out", str(a), "--no-timestamp"]) == 0
        assert cli.main(["observability", "--modes", "7", "--n", "64", "--out", str(b), "--no-timestamp"]) == 0
        assert tree_bytes(a) == tree_bytes(b)
        assert json.loads((a / "manifest.json").read_text())["config"]["mode_counts"] == [7]

    def test_sweep_tree_is_independent_of_how_jobs_is_set(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[sweep]\njobs = 2\n")
        grid = ["--n", "16", "--modes", "2", "--no-timestamp"]
        runs = {
            "default": [],
            "config": ["--config", str(cfg)],
            "flag": ["--jobs", "2"],
        }
        trees, printed = {}, {}
        for name, extra in runs.items():
            out = tmp_path / name
            assert cli.main(["sweep", *grid, *extra, "--out", str(out)]) == 0
            trees[name] = tree_bytes(out)
            printed[name] = capsys.readouterr().out.splitlines()[-2]
        assert trees["config"] == trees["default"] == trees["flag"]
        assert "jobs" not in json.loads(trees["flag"]["manifest.json"])["config"]
        assert printed["default"].endswith(" jobs=1")
        assert printed["config"].endswith(" jobs=2") and printed["flag"].endswith(" jobs=2")

    @pytest.mark.parametrize(
        "args",
        [["hum", "--n", "64", "--modes", "4"], ["sweep", "--n", "16", "--modes", "2", "--jobs", "2"]],
        ids=lambda args: args[0],
    )
    def test_manifest_entries_match_bytes_on_disk(self, tmp_path, args):
        # entries come from the bytes as they are written; a sweep's cells
        # are buffered and land through the absorbing emitter
        out = tmp_path / "o"
        assert cli.main(args + ["--out", str(out), "--no-timestamp"]) == 0
        entries = json.loads((out / "manifest.json").read_text())["files"]
        on_disk = sorted(p.name for p in out.iterdir())
        assert sorted(e["name"] for e in entries) + ["manifest.json"] == on_disk
        for entry in entries:
            data = (out / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["bytes"] == len(data)

    def test_verify_accepts_then_flags_drift(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "spectrum", "--n", "16", "--modes", "4", "--out", str(out)
        ).returncode == 0
        clean = run_cli("spectrum", "--verify", "--out", str(out))
        assert clean.returncode == 0
        assert "ok" in clean.stdout
        with open(out / "spectrum.csv", "a") as f:
            f.write("tampered\n")
        drift = run_cli("spectrum", "--verify", "--out", str(out))
        assert drift.returncode == 1
        assert "drift" in drift.stdout


# one out-of-range and one malformed value per flag
FLAG_VALUES = [
    ("beta", "1.5"), ("beta", "abc"),
    ("n", "0"), ("n", "abc"),
    ("modes", "0"), ("modes", "2.5"),
    ("T", "0"), ("T", "soon"), ("T", "inf"), ("T", "1e308"),
    ("epsilon", "1.0"), ("epsilon", "wide"),
    ("seed", "-1"), ("seed", "abc"),
    ("jobs", "0"), ("jobs", "abc"),
]


class TestCliErrors:
    @pytest.mark.parametrize(
        "flag,value", FLAG_VALUES, ids=[f"--{f} {v}" for f, v in FLAG_VALUES]
    )
    def test_flag_checked_by_config_parser(self, tmp_path, capsys, flag, value):
        # the same key in a config file fails with the same message, which
        # names the key and echoes the text
        section = "sweep" if flag == "jobs" else "hum"
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\n{flag} = {value}\n")
        expected = str(info.value).removeprefix("line 2: ")
        assert expected.startswith(f"{flag} ")
        assert value in expected
        out = tmp_path / "o"
        code = cli.main([section, f"--{flag}", value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"fraclab: config error: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,key",
        [
            (["spectrum", "--n", "64", "--T", "5"], "T"),
            (["sweep", "--n", "16", "--modes", "2", "--epsilon", "0.3"], "epsilon"),
        ],
        ids=["spectrum", "sweep"],
    )
    def test_flag_outside_the_section_exits_2(self, tmp_path, capsys, args, key):
        # a flag the subcommand does not take fails like the same key in its
        # section of a config file
        out = tmp_path / "o"
        assert cli.main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fraclab: config error: unknown key {key!r} in [spectrum]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,ini,message",
        [
            (["spectrum", "--modes", "70", "--n", "64"], None,
             "modes = 70 exceeds the number of interior nodes n = 64"),
            (["gaps", "--modes", "1", "--n", "64"], None, "gaps needs modes >= 2"),
            (["pohozaev", "--n", "19"], None,
             "n = 19 is too coarse for boundary-layer fitting (needs at least 20 nodes)"),
            (["sweep"], "[sweep]\nbetas = 0.3, 0.3000000001\n",
             "sweep betas 0.3, 0.3000000001 share a file prefix; "
             "they must differ at 6 significant digits"),
            (["hum", "--n", "4095"], "[hum]\ndatum = 30\n",
             "datum mode 30 exceeds the mode span 20"),
            # the layers hold no grid node, or -1 + epsilon rounds to -1
            (["hum", "--epsilon", "1e-11", "--n", "64"], None,
             "epsilon = 1e-11 at n = 64: region contains no grid nodes at this resolution"),
            (["observability", "--epsilon", "1e-17", "--n", "64"], None,
             "epsilon = 1e-17 at n = 64: "
             "interval (-1.0, -1.0) must satisfy -1 <= left < right <= 1"),
        ],
        ids=["span", "gaps", "pohozaev", "sweep-prefix", "datum", "epsilon-empty",
             "epsilon-rounds"],
    )
    def test_config_error_leaves_no_directory_and_solves_nothing(
        self, tmp_path, capsys, monkeypatch, args, ini, message
    ):
        solves = []
        monkeypatch.setattr(cli, "compute_spectrum", lambda *a: solves.append(a))
        if ini is not None:
            cfg = tmp_path / "c.ini"
            cfg.write_text(ini)
            args = [*args, "--config", str(cfg)]
        out = tmp_path / "o"
        assert cli.main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"fraclab: config error: {message}\n"
        assert not out.exists()
        assert solves == []

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_n_above_cap_exits_2(self, tmp_path, capsys, via):
        assert parse_config(f"n = {MAX_NODES}\n").spectrum.n == MAX_NODES
        out = tmp_path / "o"
        text = str(MAX_NODES + 1)
        if via == "flag":
            args, where = ["--n", text], ""
        else:
            cfg = tmp_path / "big.ini"
            cfg.write_text(f"[spectrum]\nn = {text}\n")
            args, where = ["--config", str(cfg)], "line 2: "
        assert cli.main(["spectrum", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"fraclab: config error: {where}n must be at most 16383, got {text}\n"
        assert not out.exists()

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spectrum]\nbeta = 1.5\n")
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_missing_config_exits_4(self, tmp_path):
        proc = run_cli(
            "spectrum", "--config", str(tmp_path / "absent.ini"),
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 4

    @pytest.mark.parametrize("body", ['{"files": [', "[]", '{"files": [{"size": 3}]}'])
    def test_malformed_manifest_exits_4(self, tmp_path, capsys, body):
        (tmp_path / "manifest.json").write_text(body)
        assert cli.main(["spectrum", "--verify", "--out", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("fraclab: i/o error: malformed manifest")
        assert str(tmp_path / "manifest.json") in err

    @pytest.mark.parametrize("form", ["relative", "absolute"])
    def test_manifest_entry_outside_run_dir_exits_4(self, tmp_path, capsys, form):
        # the named file exists and matches its digest, yet lies outside the
        # run directory, so the manifest is refused before anything is hashed
        outside = tmp_path / "outside.txt"
        outside.write_text("elsewhere\n")
        run = tmp_path / "run"
        run.mkdir()
        name = "../outside.txt" if form == "relative" else str(outside)
        digest = hashlib.sha256(outside.read_bytes()).hexdigest()
        (run / "manifest.json").write_text(
            json.dumps({"files": [{"name": name, "sha256": digest}]})
        )
        assert cli.main(["spectrum", "--verify", "--out", str(run)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fraclab: i/o error: malformed manifest")
        assert repr(name) in err

    def test_manifest_entry_linked_outside_run_dir_exits_4(self, tmp_path, capsys):
        # a plain name whose symbolic link leads out of the run directory,
        # next to one whose link stays inside and verifies as usual
        outside = tmp_path / "outside.txt"
        outside.write_text("elsewhere\n")
        run = tmp_path / "run"
        run.mkdir()
        (run / "inside.txt").write_text("here\n")
        (run / "alias.txt").symlink_to("inside.txt")
        entries = [{"name": "alias.txt", "sha256": hashlib.sha256(b"here\n").hexdigest()}]
        (run / "manifest.json").write_text(json.dumps({"files": entries}))
        assert cli.main(["spectrum", "--verify", "--out", str(run)]) == 0
        assert capsys.readouterr().out == "ok       alias.txt\nverify: ok\n"

        (run / "link.txt").symlink_to("../outside.txt")
        digest = hashlib.sha256(outside.read_bytes()).hexdigest()
        entries.append({"name": "link.txt", "sha256": digest})
        (run / "manifest.json").write_text(json.dumps({"files": entries}))
        assert cli.main(["spectrum", "--verify", "--out", str(run)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fraclab: i/o error: manifest")
        assert "'link.txt' resolves outside the run directory" in err

    def test_uncontrollable_run_exits_3_with_structured_report(self, tmp_path):
        cfg = tmp_path / "hum.ini"
        cfg.write_text(
            "[hum]\nbeta = 0.25\nn = 256\nmodes = 40\nT = 4\nepsilon = 0.2\n"
        )
        proc = run_cli("hum", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        body = json.loads(proc.stdout)
        assert body["error"]["type"] == "UncontrollableError"
        assert "observability" in body["error"]["diagnostics"]


# Every field of each section set away from its default; n small for speed.
ECHO_CONFIG = """
[evolve]
beta = 0.7
n = 32
modes = 6
T = 1.5
seed = 3
equation = wave
samples = 11
datum = 2,5

[observability]
betas = 0.75, 0.3
mode_counts = 3, 6
n = 48
T = 2.5
epsilon = 0.3

[sharpness]
betas = 0.6, 0.4
mode_counts = 4
n = 40
T = 3
epsilon = 0.25

[hum]
beta = 0.75
n = 64
modes = 6
T = 2
epsilon = 0.25
seed = 5
datum = 1,4
control_csv = false

[pohozaev]
beta = 0.6
n = 64
modes = 5
T = 2.5
datum = 2,4
seed = 4
"""


class TestReportEcho:
    @pytest.mark.parametrize("name", ["evolve", "pohozaev", "hum", "observability", "sharpness"])
    def test_report_holds_its_section(self, tmp_path, name):
        path = tmp_path / "echo.ini"
        path.write_text(ECHO_CONFIG)
        section = getattr(load_config(path), name)
        default = getattr(RunConfig(), name)
        echoed = asdict(section)
        assert all(value != getattr(default, key) for key, value in echoed.items())
        if name == "hum":
            del echoed["control_csv"]
        if "betas" in echoed:
            assert list(section.betas) != sorted(section.betas)
            echoed["betas"] = sorted(section.betas)
        out = tmp_path / "o"
        assert cli.main([name, "--config", str(path), "--out", str(out), "--no-timestamp"]) == 0
        report = json.loads((out / f"{name}.json").read_text())
        assert "control_csv" not in report
        for key, value in echoed.items():
            assert report[key] == (list(value) if isinstance(value, tuple) else value), key


class TestCliObservability:
    def test_single_cell_equals_region_mass(self, tmp_path):
        cfg = tmp_path / "obs.ini"
        cfg.write_text(
            "[observability]\nbetas = 0.6\nn = 64\nmode_counts = 1\n"
            "T = 1\nepsilon = 0.3\n"
        )
        out = tmp_path / "o"
        proc = run_cli(
            "observability", "--config", str(cfg), "--out", str(out), "--no-timestamp"
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out / "observability.csv")
        assert header == ["beta", "K", "T", "epsilon", "obs_constant", "condition"]
        assert len(rows) == 1
        got = float(rows[0][4])
        spectrum = compute_spectrum(assemble_operator(Grid(64), 0.6), 1)
        R = region_mass_matrix(spectrum, ObservationRegion.boundary_layers(0.3), 1)
        assert got == pytest.approx(1.0 * R[0, 0], rel=1e-12)
        assert float(rows[0][5]) == pytest.approx(1.0)
        summary = json.loads((out / "observability.json").read_text())
        assert summary["resolved"] == [[True]]

    def test_one_count_table_prints_no_verdict(self, tmp_path, capsys):
        # two orders, one mode count: a column of constants, no decay ratio
        cfg = tmp_path / "obs.ini"
        cfg.write_text("[observability]\nbetas = 0.3, 0.6\nmode_counts = 5\nn = 64\n")
        out = tmp_path / "o"
        assert cli.main(["observability", "--config", str(cfg), "--out", str(out)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "observability: n=64 T=4 epsilon=0.2  one mode count, no verdict"
        _, rows = read_csv(out / "observability.csv")
        assert len(rows) == 2


    def test_table_command_holds_one_spectrum_at_a_time(self, tmp_path, monkeypatch):
        # each order's spectrum is dropped once its row of Gramians is done,
        # before the next order's eigensolve
        refs, held = [], []

        def tracked(op, modes):
            held.append(sum(ref() is not None for ref in refs))
            spectrum = compute_spectrum(op, modes)
            refs.append(weakref.ref(spectrum))
            return spectrum

        monkeypatch.setattr(cli, "compute_spectrum", tracked)
        cfg = tmp_path / "sharp.ini"
        cfg.write_text("[sharpness]\nbetas = 0.75, 0.25, 0.5\nmode_counts = 5, 10\nn = 64\n")
        out = tmp_path / "o"
        assert cli.main(["sharpness", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        assert held == [0, 0, 0]
        assert [ref() for ref in refs] == [None, None, None]
        summary = json.loads((out / "sharpness.json").read_text())
        assert summary["betas"] == [0.25, 0.5, 0.75]


class TestCliHum:
    HUM_ARGS = ["hum", "--beta", "0.6", "--n", "128", "--modes", "6", "--T", "1",
                "--epsilon", "0.25", "--no-timestamp"]

    def test_zero_datum_report(self, tmp_path):
        cfg = tmp_path / "hum.ini"
        cfg.write_text(
            "[hum]\nbeta = 0.6\nn = 128\nmodes = 6\nT = 1\nepsilon = 0.25\ndatum = zero\n"
        )
        out = tmp_path / "o"
        proc = run_cli("hum", "--config", str(cfg), "--out", str(out), "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "hum.json").read_text())
        assert report["final_state_norm"] == 0.0
        assert report["identity_residual"] == 0.0
        header, rows = read_csv(out / "control.csv")
        assert header[0] == "t"
        # one re/im column pair per region node
        assert (len(header) - 1) % 2 == 0
        assert len(rows) == 1001

    def test_control_csv_matches_synthesis(self, tmp_path):
        beta, n, modes, T, epsilon, seed = 0.6, 128, 6, 1.0, 0.25, 3
        out = tmp_path / "o"
        code = cli.main([
            "hum", "--beta", str(beta), "--n", str(n), "--modes", str(modes),
            "--T", str(T), "--epsilon", str(epsilon), "--seed", str(seed),
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        spectrum = compute_spectrum(assemble_operator(Grid(n), beta), modes)
        region = ObservationRegion.boundary_layers(epsilon)
        a0 = cli._make_datum("random", modes, seed)
        state = ModalState(coefficients=a0, spectrum=spectrum)
        result = hum_control(state, region, T)
        report = json.loads((out / "hum.json").read_text())
        assert report["replay_steps"] == result.replay_steps
        assert report["replay_capped"] is False
        assert report["replay_error_estimate"] == result.replay_error_estimate
        assert report["identity_error_estimate"] == result.identity_error_estimate
        assert report["replay_error_estimate"] <= cli.VERIFICATION_TOLERANCE / 100.0
        assert report["identity_error_estimate"] <= cli.VERIFICATION_TOLERANCE / 100.0
        idx = region.node_indices(spectrum.grid)
        header, rows = read_csv(out / "control.csv")
        assert header[0] == "t"
        assert header[1::2] == [f"re_{i + 1}" for i in idx]
        assert header[2::2] == [f"im_{i + 1}" for i in idx]
        table = np.array(rows, dtype=float)
        assert np.any(table[:, 1:] != 0.0)
        np.testing.assert_array_equal(table[:, 0], [r * result.control_dt for r in range(len(rows))])
        np.testing.assert_array_equal(table[:, 1::2], result.control_samples.real)
        np.testing.assert_array_equal(table[:, 2::2], result.control_samples.imag)

    def test_failed_replay_exits_3(self, tmp_path, capsys, monkeypatch):
        replay = control._forced_increment
        monkeypatch.setattr(control, "_forced_increment", lambda *a, **k: replay(*a, **k) + 1e-6)
        out = tmp_path / "o"
        assert cli.main([*self.HUM_ARGS, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["type"] == "NumericalError"
        diagnostics = error["diagnostics"]
        assert diagnostics["relative_final_norm"] > control.VERIFICATION_TOLERANCE
        assert diagnostics["identity_residual"] <= control.VERIFICATION_TOLERANCE
        assert diagnostics["tolerance"] == control.VERIFICATION_TOLERANCE
        assert diagnostics["replay_capped"] is False
        assert "relative_final_norm" in captured.err
        assert not (out / "hum.json").exists()

    @staticmethod
    def _kernel_calls(monkeypatch):
        calls = []
        kernel = control._forced_increment

        def recording(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(control, "_forced_increment", recording)
        return calls

    def test_capped_replay_exits_3(self, tmp_path, capsys, monkeypatch):
        # HUM_ARGS needs one coarse panel and two accepted ones, 64 samples
        monkeypatch.setattr(control, "REPLAY_STEP_CAP", 63)
        calls = self._kernel_calls(monkeypatch)
        assert cli.main([*self.HUM_ARGS, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        diagnostics = json.loads(captured.out)["error"]["diagnostics"]
        assert diagnostics["replay_capped"] is True
        assert diagnostics["replay_steps"] == 2 * control.PANEL_NODES
        assert "step cap" in captured.err
        assert calls == []

    def test_first_level_beyond_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # omega * T ~ 1e8 asks for far more samples than the cap: the replay
        # says so without taking any
        calls = self._kernel_calls(monkeypatch)
        args = ["hum", "--T", "1e6", "--n", "64", "--modes", "5", "--no-timestamp"]
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        diagnostics = json.loads(captured.out)["error"]["diagnostics"]
        assert diagnostics["replay_capped"] is True
        lam = compute_spectrum(assemble_operator(Grid(64), 0.6), 5).eigenvalues
        panels = math.ceil(float(lam[-1] - lam[0]) * 1e6 / control.PANEL_NODES)
        assert diagnostics["replay_steps"] == 2 * control.PANEL_NODES * panels
        assert diagnostics["replay_steps"] > control.REPLAY_STEP_CAP
        assert "step cap" in captured.err
        assert calls == []

    def test_largest_horizon_reports_a_finite_step_count(self, tmp_path, capsys):
        # 2 * P * 32 samples at T = 1e299 is a 301-digit integer; it is
        # reported as a float that a 64-bit JSON reader holds
        args = ["hum", "--T", "1e299", "--n", "64", "--modes", "5", "--no-timestamp"]
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        diagnostics = json.loads(captured.out)["error"]["diagnostics"]
        assert diagnostics["replay_capped"] is True
        steps = diagnostics["replay_steps"]
        assert isinstance(steps, float) and math.isfinite(steps)
        assert steps > 1e299
        assert "step cap" in captured.err
        assert len(captured.err) < 1000

    def test_ill_conditioned_replay_stops_at_rounding_floor(self, tmp_path, capsys):
        # below the minimal control time the steering datum is large and the
        # replay's rounding floor sits above 1e-9: the run fails its
        # verification well short of the cap
        args = ["hum", "--beta", "0.5", "--modes", "40", "--T", "1", "--n", "255", "--no-timestamp"]
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        diagnostics = json.loads(captured.out)["error"]["diagnostics"]
        assert diagnostics["replay_capped"] is False
        assert diagnostics["replay_steps"] <= 65536
        assert diagnostics["relative_final_norm"] > control.VERIFICATION_TOLERANCE
        assert "relative_final_norm" in captured.err

    @pytest.mark.parametrize("key", ["replay_error_estimate", "identity_error_estimate"])
    def test_error_estimate_beyond_tolerance_fails(self, key):
        report = {
            "relative_final_norm": 1e-13,
            "identity_residual": 1e-14,
            "replay_error_estimate": 1e-12,
            "identity_error_estimate": 1e-12,
            "replay_steps": 16384,
            "replay_capped": False,
        }
        cli._check_hum_verification(report)
        report[key] = 2.0 * control.VERIFICATION_TOLERANCE
        with pytest.raises(NumericalError) as info:
            cli._check_hum_verification(report)
        assert str(info.value) == f"hum verification failed: {key} = 2.000e-09 exceeds 1e-09"
        assert info.value.diagnostics[key] == report[key]

    def test_control_csv_toggle(self, tmp_path):
        cfg = tmp_path / "hum.ini"
        cfg.write_text(
            "[hum]\nbeta = 0.6\nn = 128\nmodes = 6\nT = 1\nepsilon = 0.25\n"
            "datum = zero\ncontrol_csv = false\n"
        )
        out = tmp_path / "o"
        proc = run_cli("hum", "--config", str(cfg), "--out", str(out), "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        assert not (out / "control.csv").exists()
        assert (out / "hum.json").exists()


class TestCliPohozaev:
    def test_coarse_grid_exits_2(self, tmp_path, capsys):
        assert cli.main(["pohozaev", "--n", "19", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "n = 19 is too coarse for boundary-layer fitting (needs at least 20 nodes)" in err

    def test_trace_integral_computed_once(self, tmp_path, monkeypatch):
        calls = []
        original = identity._trace_integral

        def counted(state, T):
            value = original(state, T)
            calls.append((state, value))
            return value

        monkeypatch.setattr(identity, "_trace_integral", counted)
        out = tmp_path / "p"
        args = ["pohozaev", "--n", "64", "--modes", "4", "--out", str(out), "--no-timestamp"]
        assert cli.main(args) == 0
        assert len(calls) == 1
        state, integral = calls[0]
        energy = float(np.sum((1.0 + state.eigenvalues) * np.abs(state.coefficients) ** 2))
        payload = json.loads((out / "pohozaev.json").read_text())
        assert payload["two_sided_ratio"] == integral / energy

    def test_eigen_checks_carry_fit_residuals(self, tmp_path):
        out = tmp_path / "p"
        args = ["pohozaev", "--n", "128", "--modes", "4", "--out", str(out), "--no-timestamp"]
        assert cli.main(args) == 0
        payload = json.loads((out / "pohozaev.json").read_text())
        spectrum = compute_spectrum(assemble_operator(Grid(128), 0.5), 4)
        assert [c["mode"] for c in payload["eigen_checks"]] == [1, 3]
        for check in payload["eigen_checks"]:
            trace = identity.boundary_trace(
                spectrum.vectors[:, check["mode"] - 1], spectrum.grid, 0.5
            )
            assert check["fit_residuals"] == [trace.left_residual, trace.right_residual]
            assert 0.0 < min(check["fit_residuals"]) and max(check["fit_residuals"]) < 0.1


class TestCliEvolve:
    def test_wave_invariants_header(self, tmp_path):
        cfg = tmp_path / "ev.ini"
        cfg.write_text(
            "[evolve]\nbeta = 0.5\nn = 64\nmodes = 6\nT = 1\nequation = wave\n"
            "samples = 51\n"
        )
        out = tmp_path / "o"
        proc = run_cli("evolve", "--config", str(cfg), "--out", str(out), "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out / "evolve.csv")
        assert header == ["t", "energy"]
        assert len(rows) == 51
        energies = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(energies, energies[0], rtol=1e-12)
        summary = json.loads((out / "evolve.json").read_text())
        assert summary["equation"] == "wave"

    def test_schrodinger_invariants_drift(self, tmp_path):
        out = tmp_path / "o"
        proc = run_cli(
            "evolve", "--beta", "0.5", "--n", "64", "--modes", "6", "--T", "4",
            "--seed", "1", "--out", str(out), "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out / "evolve.csv")
        assert header == ["t", "mass", "energy", "energy2"]
        summary = json.loads((out / "evolve.json").read_text())
        assert max(summary["max_invariant_drift"]) < 1e-12


class TestCliSweep:
    def test_cells_and_parallel_determinism(self, tmp_path):
        cfg = tmp_path / "sw.ini"
        cfg.write_text(
            "[sweep]\ncommand = gaps\nbetas = 0.3, 0.6\n\n[gaps]\nn = 64\nmodes = 5\n"
        )
        # same relative --out from two working directories, so that the
        # printed summaries can be compared verbatim
        seq_cwd, par_cwd = tmp_path / "seq", tmp_path / "par"
        seq_cwd.mkdir()
        par_cwd.mkdir()
        seq_run = run_cli(
            "sweep", "--config", str(cfg), "--out", "run", "--no-timestamp", cwd=seq_cwd
        )
        par_run = run_cli(
            "sweep", "--config", str(cfg), "--out", "run", "--no-timestamp",
            "--jobs", "2", cwd=par_cwd,
        )
        assert seq_run.returncode == 0 and par_run.returncode == 0
        assert seq_run.stdout.splitlines()[:2] == [
            "gaps: beta=0.3 n=64 rows=4", "gaps: beta=0.6 n=64 rows=4",
        ]
        assert par_run.stdout == seq_run.stdout.replace("jobs=1", "jobs=2")
        seq, par = seq_cwd / "run", par_cwd / "run"
        names = sorted(p.name for p in seq.iterdir())
        assert names == [
            "beta0.3_gaps.csv", "beta0.3_gaps.svg",
            "beta0.6_gaps.csv", "beta0.6_gaps.svg", "manifest.json",
        ]
        assert names == sorted(p.name for p in par.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(seq, par, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_beta_flag_narrows_sweep(self, tmp_path):
        cfg = tmp_path / "sw.ini"
        cfg.write_text("[sweep]\ncommand = spectrum\n\n[spectrum]\nn = 32\nmodes = 4\n")
        out = tmp_path / "o"
        proc = run_cli(
            "sweep", "--config", str(cfg), "--beta", "0.5", "--out", str(out),
            "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in out.iterdir())
        assert names == ["beta0.5_spectrum.csv", "beta0.5_spectrum.svg", "manifest.json"]

    def test_betas_sharing_a_file_prefix_are_rejected(self, tmp_path):
        cfg = tmp_path / "sw.ini"
        cfg.write_text(
            "[sweep]\ncommand = spectrum\nbetas = 0.3, 0.3000000001\n\n"
            "[spectrum]\nn = 16\nmodes = 2\n"
        )
        out = tmp_path / "o"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp")
        assert proc.returncode == 2
        assert proc.stderr.startswith("fraclab: config error:")
        assert "prefix" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


class TestCommandRegistry:
    def test_cell_commands_are_the_config_sections(self):
        sections = {f.name for f in fields(RunConfig)} - {"out", "sweep"}
        assert set(cli._CELL_COMMANDS) == sections
        for name in sections:
            assert _parse_command(name) == name
        for name in ("sweep", "out", "conduction"):
            with pytest.raises(ValueError):
                _parse_command(name)


class TestVersionFlag:
    def test_version_prints(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "fraclab" in proc.stdout
