"""Tests of the benchmark itself: python3 -m pytest perfbench

Tiny variants of every workload run end to end, and the correctness gate is
shown to count tampered artifacts and out-of-tolerance values as failures.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Cell  # noqa: E402


@pytest.fixture(autouse=True)
def _one_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.fixture(scope="module")
def tiny_reference():
    return {w: make_reference.reference_for(w, "tiny") for w in workloads.WORKLOADS}


def _cli(argv):
    from fraclab.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_passes_its_gate(workload, trace, tiny_reference):
    result, summary = run.run(workload, 3, 0, trace, scale="tiny", reference=tiny_reference[workload])
    assert summary["failures"] == {}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == summary["passes"] * len(workloads.cells(workload, 3, "tiny"))
    wanted = run.PER_LAYER if trace else dict(run.END_TO_END)
    assert set(result["metrics"]) == set(wanted)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not run.WORK.exists()


def test_failed_cells_are_counted_not_passed(tiny_reference):
    reference = json.loads(json.dumps(tiny_reference["refine"]))
    reference["spectrum_n127"]["eigenvalues"][0] *= 1 + 1e-7
    reference["pohozaev_n63"]["residual"] *= 1.01
    result, summary = run.run("refine", 0, 0, 0, scale="tiny", reference=reference)
    assert not result["correct"]
    assert result["failed"] == 2 * summary["passes"]
    assert set(summary["failures"]) == {"spectrum_n127", "pohozaev_n63"}


def test_tampered_artifact_fails_verify(tmp_path):
    out = str(tmp_path / "spec")
    assert _cli(["spectrum", "--n", "63", "--out", out, "--no-timestamp"])[0] == 0
    cell = Cell(id="spectrum", kind="spectrum", argv=("spectrum",))
    verify = Cell(id="verify_spectrum", kind="verify", argv=("spectrum", "--verify"), target="spectrum")
    reference = {"spectrum": checks.extract("spectrum", out)}
    rc, stdout = _cli(["spectrum", "--verify", "--out", out])
    assert checks.check_cell(verify, out, rc, stdout, reference) == []

    path = os.path.join(out, "spectrum.csv")
    text = open(path, encoding="utf-8").read()
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    rc, stdout = _cli(["spectrum", "--verify", "--out", out])
    assert rc == 1
    assert checks.check_cell(verify, out, rc, stdout, reference)
    assert checks.check_cell(cell, out, 0, "", reference)


def test_hum_that_misses_its_target_fails_although_it_exits_zero(tmp_path):
    # beta = 1/2 with T = 1 is below the minimal control time; the replay
    # misses 1e-9 and the subcommand still exits 0
    out = str(tmp_path / "hum")
    rc, _ = _cli(["hum", "--beta", "0.5", "--modes", "40", "--T", "1", "--n", "255", "--out", out, "--no-timestamp"])
    assert rc == 0
    cell = Cell(id="hum", kind="hum_csv", argv=("hum",))
    problems = checks.check_cell(cell, out, rc, "", {})
    assert any("relative_final_norm" in p for p in problems)


def test_gate_rejects_wrong_verdict_and_missing_control_csv(tmp_path):
    out = tmp_path / "sharp"
    rc, _ = _cli(["sharpness", "--n", "127", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    cell = Cell(id="sharpness", kind="sharpness", argv=("sharpness",))
    reference = {"sharpness": checks.extract("sharpness", out)}
    assert checks.check_cell(cell, out, rc, "", reference) == []
    table = json.loads((out / "sharpness.json").read_text())
    table["verdicts"] = ["uniform"] * len(table["verdicts"])
    (out / "sharpness.json").write_text(json.dumps(table))
    assert any("verdict" in p for p in checks.check_cell(cell, out, rc, "", reference))

    hum = tmp_path / "hum"
    assert _cli(["hum", "--n", "127", "--out", str(hum), "--no-timestamp"])[0] == 0
    (hum / "control.csv").unlink()
    problems = checks.check_cell(Cell(id="hum", kind="hum_csv", argv=("hum",)), hum, 0, "", {})
    assert any("unreadable" in p for p in problems)


def test_missing_reference_is_a_failure(tmp_path):
    out = str(tmp_path / "spec")
    assert _cli(["spectrum", "--n", "63", "--out", out, "--no-timestamp"])[0] == 0
    cell = Cell(id="spectrum", kind="spectrum", argv=("spectrum",))
    assert checks.check_cell(cell, out, 0, "", {}) == ["no reference values for cell spectrum"]


def test_span_bookkeeping_is_per_thread():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.05)
        inner()

    outer = tracer.span("outer", outer_body)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=outer) for _ in range(2)]
        threads += [threading.Thread(target=inner) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 2
    # each outer span loses exactly its own thread's inner span
    assert 0.09 <= self_s <= total - 0.09
    assert tracer.spans["inner"][0] == 6


def test_required_spans_exist_in_the_span_table():
    names = {source[1] for _, source in run.PER_LAYER.values() if source[0] == "span"}
    for required in workloads.REQUIRED_SPANS.values():
        assert set(required) <= names


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v[0]) for k, v in run.PER_LAYER.items()]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_hum_seeds_follow_the_benchmark_seed():
    assert workloads.cells("artifacts", 5) == workloads.cells("artifacts", 5)
    assert workloads.hum_seeds("artifacts", 5, 4) != workloads.hum_seeds("artifacts", 6, 4)
    assert workloads.cells("refine", 5) == workloads.cells("refine", 6)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
