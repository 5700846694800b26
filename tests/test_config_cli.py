"""Config parsing and the command-line interface, end to end."""

import csv
import filecmp
import json
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from fraclab import (
    Grid,
    ModalState,
    ObservationRegion,
    assemble_operator,
    compute_spectrum,
    hum_control,
    region_mass_matrix,
)
from fraclab import cli
from fraclab.config import (
    ConfigError,
    RunConfig,
    _parse_command,
    load_config,
    override_section,
    parse_config,
    resolved_values,
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
        assert cfg.hum.horizon == 2.5
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
            ("[pohozaev]\ntime_intervals = 7\n", "time_intervals", 2),
            ("[evolve]\nequation = heat\n", "equation", 2),
            ("[evolve]\ndatum = prime\n", "datum", 2),
            ("[observability]\nmode_counts = 8, 4\n", "mode_counts", 2),
            ("[spectrum]\nbeta\n", "expected", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert fragment.lower() in str(info.value).lower()
        assert f"line {line}" in str(info.value)

    def test_resolved_values_echo_file_keys(self):
        cfg = parse_config("[hum]\nT = 2.0\n")
        echo = resolved_values(cfg.hum)
        assert echo["T"] == 2.0
        assert "horizon" not in echo
        assert echo["beta"] == 0.6

    def test_override_section(self):
        cfg = parse_config("")
        updated = override_section(cfg, "hum", beta=0.7, horizon=3.0, seed=None)
        assert updated.hum.beta == 0.7
        assert updated.hum.horizon == 3.0
        # None means "flag not given": the config value stays
        assert updated.hum.seed == 0
        with_lists = override_section(cfg, "observability", beta=0.3, modes=7)
        assert with_lists.observability.betas == (0.3,)
        assert with_lists.observability.mode_counts == (7,)

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
    ("T", "0"), ("T", "soon"),
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


class TestCliHum:
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
        state = ModalState(coefficients=a0, time=0.0, spectrum=spectrum, basis="phi")
        control = hum_control(state, region, T).control
        idx = region.node_indices(spectrum.grid)
        header, rows = read_csv(out / "control.csv")
        assert header[0] == "t"
        assert header[1::2] == [f"re_{i + 1}" for i in idx]
        assert header[2::2] == [f"im_{i + 1}" for i in idx]
        table = np.array(rows, dtype=float)
        assert np.any(table[:, 1:] != 0.0)
        np.testing.assert_array_equal(table[:, 0], [r * control.dt for r in range(len(rows))])
        np.testing.assert_array_equal(table[:, 1::2], control.values.real)
        np.testing.assert_array_equal(table[:, 2::2], control.values.imag)

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
        assert not out.exists() or list(out.iterdir()) == []


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
