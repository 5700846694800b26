"""fraclab benchmark: closed-loop, single-client passes over fixed workloads.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each pass is one fresh interpreter (child.py) that
runs the workload's cells one after another through ``fraclab.cli.main``,
with BLAS pinned to one thread, writing into a scratch directory under
``.perfbench-work/`` that is checked and then removed.  Passes repeat while
the next one is expected to end within ``--seconds``; fresh-interpreter
probes that only import ``fraclab.cli`` add set-up samples.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over passes.  With ``--trace 1`` traced and untraced passes
alternate; spans from spans.py give the per-layer metrics, and
``trace.overhead_s`` is traced minus untraced median wall time.
``attempted``/``failed`` count cells and cells failing the correctness gate
in checks.py.  Exit status: 0 when every cell passed, 1 when a cell failed
its checks, 2 when the benchmark cannot run (no fraclab sources, a pass
crashed or timed out, a required span recorded no calls).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

# Set-up probes per run, after one discarded warm-up probe.
SETUP_PROBES = 4
# A run must end well inside the 180 s a caller allows it.
RUN_DEADLINE_S = 170.0

# Pinned before numpy loads in each pass.  One BLAS thread is steadier than
# two on a small machine.  A fixed mmap threshold turns off glibc's dynamic
# threshold, which otherwise makes peak RSS jump by one replay block
# (~27 MB) depending on the hum data seed; with it, arrays of 128 KiB and
# more are mapped and unmapped, so peak RSS is the high-water mark of live
# data.  numpy's transparent-huge-page advice is off because whether huge
# pages are available at a fault varies from minute to minute, which moved
# a dense n = 4095 eigensolve between 8.1 and 10.3 s; without it, it stays
# near 10.1 s.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lambda1_err", "ratio"),
)

CLI_SPANS = ("spectrum", "gaps", "evolve", "observability", "sharpness", "hum", "pohozaev", "sweep", "verify")

# name -> (unit, source).  Sources: ("span", span, field) with field 0 =
# calls, 1 = total seconds, 2 = self seconds; ("counter", counter);
# ("share", counter, span) = counter per call of span; ("wall",) = median
# traced wall time; ("overhead",) = that minus the median untraced one.
PER_LAYER = dict(
    [(f"cli.{c}.s", ("s", ("span", f"cli.{c}", 1))) for c in CLI_SPANS]
    + [
        ("cli.hum.self_s", ("s", ("span", "cli.hum", 2))),
        ("config.load_config.s", ("s", ("span", "config.load_config", 1))),
        ("operator.assemble_operator.s", ("s", ("span", "operator.assemble_operator", 1))),
        ("operator.dense.s", ("s", ("span", "operator.dense", 1))),
        ("operator.dense_bytes_computed", ("B", ("counter", "operator.dense_bytes_computed"))),
        ("spectra.compute_spectrum.s", ("s", ("span", "spectra.compute_spectrum", 1))),
        ("spectra.compute_spectrum.self_s", ("s", ("span", "spectra.compute_spectrum", 2))),
        ("spectra.compute_spectrum.calls", ("count", ("span", "spectra.compute_spectrum", 0))),
        ("spectra.modes_solved", ("count", ("counter", "spectra.modes_solved"))),
        ("spectra.repeat_share", ("share", ("share", "spectra.repeat_solves", "spectra.compute_spectrum"))),
        ("regions.node_indices.calls", ("count", ("span", "regions.node_indices", 0))),
        ("regions.max_nodes", ("count", ("counter", "regions.max_nodes"))),
        ("control.schrodinger_gramian.s", ("s", ("span", "control.schrodinger_gramian", 1))),
        ("control.observability_constant.s", ("s", ("span", "control.observability_constant", 1))),
        ("control.gramian_condition.s", ("s", ("span", "control.gramian_condition", 1))),
        ("control.sharpness_experiment.self_s", ("s", ("span", "control.sharpness_experiment", 2))),
        ("control.hum_control.self_s", ("s", ("span", "control.hum_control", 2))),
        ("control.gramian_max_modes", ("count", ("counter", "control.gramian_max_modes"))),
        ("dynamics.forced_increment.s", ("s", ("span", "dynamics.forced_increment", 1))),
        ("dynamics.replay_samples", ("count", ("counter", "dynamics.replay_samples"))),
        ("dynamics.schrodinger_evolve.s", ("s", ("span", "dynamics.schrodinger_evolve", 1))),
        ("identity.schrodinger_pohozaev_report.s", ("s", ("span", "identity.schrodinger_pohozaev_report", 1))),
        ("identity.eigen_pohozaev_check.s", ("s", ("span", "identity.eigen_pohozaev_check", 1))),
        ("identity.two_sided_estimate_ratio.s", ("s", ("span", "identity.two_sided_estimate_ratio", 1))),
        ("output.csv_text.s", ("s", ("span", "output.csv_text", 1))),
        ("output.json_text.s", ("s", ("span", "output.json_text", 1))),
        ("output.emitter_write.s", ("s", ("span", "output.emitter_write", 1))),
        ("output.bytes_written", ("B", ("counter", "output.bytes_written"))),
        ("output.files_written", ("count", ("counter", "output.files_written"))),
        ("output.write_manifest.s", ("s", ("span", "output.write_manifest", 1))),
        ("output.verify_manifest.s", ("s", ("span", "output.verify_manifest", 1))),
        ("output.bytes_verified", ("B", ("counter", "output.bytes_verified"))),
        ("svgplot.line_plot.s", ("s", ("span", "svgplot.line_plot", 1))),
        ("svgplot.bytes", ("B", ("counter", "svgplot.bytes"))),
        ("trace.wall_s", ("s", ("wall",))),
        ("trace.overhead_s", ("s", ("overhead",))),
    ]
)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cells, pass_dir, trace, deadline):
    """Run one pass (or a set-up probe when `cells` is empty) in a fresh interpreter."""
    pass_dir.mkdir(parents=True)
    spec = {"root": str(ROOT), "trace": trace, "cells": []}
    for cell in cells:
        if cell.kind == "verify":
            out = pass_dir / cell.target
        else:
            out = pass_dir / cell.id
        argv = list(cell.argv) + ["--out", str(out), "--no-timestamp"]
        if cell.config is not None:
            config = pass_dir / f"{cell.id}.ini"
            config.write_text(cell.config, encoding="utf-8")
            argv += ["--config", str(config)]
        spec["cells"].append({"id": cell.id, "subcommand": cell.subcommand, "argv": argv})
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before a pass could start")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(launch), str(spec_path)],
            env=_child_env(),
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"pass in {pass_dir.name} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"pass in {pass_dir.name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(workload, scale, cells, record, pass_dir, reference):
    """Per-cell problems of one finished pass, and its lambda_1 error."""
    by_id = {r["id"]: r for r in record["cells"]}
    problems = {}
    for cell in cells:
        result = by_id[cell.id]
        directory = pass_dir / (cell.target or cell.id)
        problems[cell.id] = checks.check_cell(cell, directory, result["rc"], result["stdout"], reference)

    source = next(c for c in cells if c.id == workloads.lambda1_source(workload, scale))
    err = None
    if not problems[source.id]:
        err = checks.lambda1_error(checks.lambda1(source.kind, pass_dir / source.id))
    if workload == "refine":
        # lambda_1 error must shrink down the grid ladder
        ladder = [c for c in cells if c.kind == "spectrum"]
        if not any(problems[c.id] for c in ladder):
            errors = [checks.lambda1_error(checks.lambda1(c.kind, pass_dir / c.id)) for c in ladder]
            if any(b >= a for a, b in zip(errors, errors[1:])):
                problems[ladder[-1].id].append(f"lambda1 error does not shrink down the ladder: {errors}")
                err = None
    return problems, err


def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values):
    if len(values) < 2:
        return {"n": len(values), "median": _median(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def per_layer_value(source, trace, traced_walls, plain_walls):
    spans, counters = trace["spans"], trace["counters"]
    if source[0] == "span":
        return spans.get(source[1], [0, 0.0, 0.0])[source[2]]
    if source[0] == "counter":
        return counters.get(source[1], 0)
    if source[0] == "share":
        calls = spans.get(source[2], [0])[0]
        return counters.get(source[1], 0) / calls if calls else 0.0
    if source[0] == "wall":
        return _median(traced_walls)
    return _median(traced_walls) - _median(plain_walls)


def run(workload, seed, seconds, trace, scale="full", reference=None):
    """Run the benchmark; returns (result dict, summary dict)."""
    if not (ROOT / "src" / "fraclab" / "cli.py").is_file():
        raise BenchmarkError(f"no fraclab sources under {ROOT / 'src'}")
    if reference is None:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)[workload]
    cells = workloads.cells(workload, seed, scale)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = WORK / f"{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        probes = []
        for i in range(SETUP_PROBES + 1):
            record = run_child([], run_dir / f"probe{i}", False, deadline)
            if i:  # the first probe warms the file cache and byte-code cache
                probes.append(record)
            shutil.rmtree(run_dir / f"probe{i}")

        passes, attempted, failed, failures = [], 0, 0, {}
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            pass_dir = run_dir / f"pass{len(passes)}"
            record = run_child(cells, pass_dir, traced, deadline)
            problems, err = check_pass(workload, scale, cells, record, pass_dir, reference)
            shutil.rmtree(pass_dir)
            record["lambda1_err"] = err
            record["traced"] = traced
            passes.append(record)
            attempted += len(cells)
            for cell_id, found in problems.items():
                if found:
                    failed += 1
                    failures.setdefault(cell_id, found)
            if traced:
                missing = [s for s in workloads.REQUIRED_SPANS[workload] if s not in record["trace"]["spans"]]
                if missing:
                    raise BenchmarkError(f"spans recorded no calls on {workload}: {', '.join(missing)}")
            # Start no pass that would end past --seconds, so run length
            # does not depend on how much one pass overshoots.
            kinds = {p["traced"] for p in passes}
            enough = len(kinds) == 2 if trace else True
            typical = _median([p["setup_s"] + p["wall_s"] for p in passes])
            if enough and time.monotonic() - started + typical > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    samples = {
        "setup_s": [p["setup_s"] for p in probes + passes],
        "wall_s": [p["wall_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "lambda1_err": [p["lambda1_err"] for p in plain if p["lambda1_err"] is not None],
    }
    metrics = {}
    if trace:
        plain_walls = samples["wall_s"]
        traced_walls = [p["wall_s"] for p in traced_passes]
        for name, (unit, source) in PER_LAYER.items():
            values = [per_layer_value(source, p["trace"], traced_walls, plain_walls) for p in traced_passes]
            metrics[name] = {"value": _median(values), "unit": unit}
    else:
        for name, unit in END_TO_END:
            if not samples[name]:
                continue  # lambda1 source failed its checks; counted in failed
            metrics[name] = {"value": _median(samples[name]), "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "samples": {k: _spread(v) for k, v in samples.items()},
        "environment": probes[0]["environment"],
        "failures": failures,
    }
    if traced_passes:
        names = sorted({name for p in traced_passes for name in p["trace"]["spans"]})
        summary["spans"] = {
            name: [_median([p["trace"]["spans"].get(name, [0, 0.0, 0.0])[i] for p in traced_passes]) for i in range(3)]
            for name in names
        }
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for cell_id, problems in summary["failures"].items():
        for problem in problems[:5]:
            print(f"perfbench: {cell_id}: {problem}", file=sys.stderr)
    print("perfbench: " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
