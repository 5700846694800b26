#!/usr/bin/env python3
"""Check that the working tree's program writes what PARENT's writes.

Usage: python3 tools/same_outputs.py PARENT

PARENT is any git revision.  Its `src` tree is exported with `git archive`,
and the working tree's `src` is copied beside it, into a temporary
directory.  Each command below then runs with --no-timestamp against both
copies, from working directories at the same relative place, so relative
paths in the output read the same.  Both sides run with
OPENBLAS_NUM_THREADS=1, whatever the caller's shell holds: the program
holds numpy's OpenBLAS at one thread itself, but a PARENT older than that
took another path through the eigensolve on more threads, so the pin keeps
the comparison like for like.  For each command the output trees,
stdout, stderr and exit codes are compared and one line is printed.  Under
it, each .csv or .json file that differs gets one more line: the largest
relative change |a - b| / max(|a|, |b|) among its numbers, read in order
from both sides, and where it lies.  The script exits 1 if any command
differs, and 0 otherwise.  The forty-one commands take about 22 s on 2
cores (Xeon, one BLAS thread).
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Config files the commands name, written into each working directory.
CONFIGS = {
    "sweep_hum.ini": "[sweep]\ncommand = hum\nbetas = 0.6, 0.75, 0.9\n",
    "wave.ini": "[evolve]\nequation = wave\n",
    "hum_zero.ini": "[hum]\ndatum = zero\n",
    "pohozaev_zero.ini": "[pohozaev]\ndatum = zero\n",
    "dichotomy.ini": (
        "[sharpness]\nbetas = 0.25, 0.4, 0.5, 0.6, 0.75, 0.9\nmode_counts = 10, 20, 40, 80\n"
        "n = 2047\nT = 4\nepsilon = 0.2\n"
    ),
    "hum_no_csv.ini": "[hum]\ncontrol_csv = false\n",
    "sweep_gaps.ini": "[sweep]\ncommand = gaps\nbetas = 0.25, 0.5, 0.75\n[gaps]\nn = 1023\nmodes = 40\n",
    "sweep_table.ini": "[sweep]\ncommand = sharpness\nbetas = 0.25, 0.75\n[sharpness]\nn = 255\n",
    "evolve_zero.ini": "[evolve]\ndatum = zero\n",
    "unresolved.ini": "[sharpness]\nbetas = 0.25, 0.3\nmode_counts = 40, 60, 80\nn = 1024\n",
    "prelude.ini": "beta = 0.3\nmodes = 7\nn = 255\n[observability]\nmode_counts = 5, 7\n",
    "reopened.ini": "[hum]\nn = 64\nmodes = 5\n[spectrum]\nn = 32\n[hum]\nT = 0.5\n",
}
HORIZON = ("hum", "--n", "64", "--modes", "5", "--T")
COMMANDS = [
    ("spectrum",),
    ("gaps",),
    ("evolve",),
    ("observability",),
    ("sharpness",),
    ("hum",),
    ("pohozaev",),
    ("sweep",),
    ("sweep", "--jobs", "2", "--n", "127"),
    ("sweep", "--config", "sweep_hum.ini", "--jobs", "2", "--n", "127"),
    ("evolve", "--config", "wave.ini"),
    # Gramians of tiny and of large norm, which the eigendecomposition
    # scales by a power of two to a largest entry in [1/2, 1)
    ("observability", "--T", "1e-150"),
    ("sharpness", "--T", "1e76"),
    ("hum", "--modes", "1"),
    ("hum", "--beta", "0.3", "--modes", "40"),
    ("hum", "--beta", "0.5", "--modes", "40", "--T", "1", "--n", "255"),
    ("hum", "--config", "hum_zero.ini", "--n", "64", "--modes", "5"),
    ("pohozaev", "--config", "pohozaev_zero.ini", "--n", "255"),
    # the benchmark's six-order table, whose beta = 1/4 row has unresolved
    # large-span constants, and other cell shapes it runs
    ("sharpness", "--config", "dichotomy.ini"),
    ("hum", "--config", "hum_no_csv.ini"),
    ("sweep", "--config", "sweep_gaps.ini"),
    # a sweep of a table command, whose cells each narrow betas to one order
    ("sweep", "--config", "sweep_table.ini"),
    ("pohozaev", "--n", "511"),
    # flat data: the zero datum's plot has a constant range
    ("evolve", "--config", "evolve_zero.ini"),
    # a table whose smallest-span constants are all unresolved, and a table
    # of one mode count (no decay ratios, no verdicts)
    ("sharpness", "--config", "unresolved.ini"),
    ("observability", "--modes", "5"),
    # global keys before any section header, a section key over them, a flag
    # over both, and a section whose header appears twice
    *((command, "--config", "prelude.ini") for command in ("observability", "spectrum", "hum", "sweep")),
    ("observability", "--config", "prelude.ini", "--beta", "0.6"),
    ("hum", "--config", "reopened.ini"),
    *(
        (*HORIZON, horizon)
        for horizon in ("1e-150", "1e-300", "1e-301", "1e-302", "1e-303", "4e-304", "1e-305", "1e6", "1e299")
    ),
]


def export_parent(parent, destination):
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", parent, "src"], capture_output=True
    )
    if archive.returncode != 0:
        sys.exit(f"same_outputs: git archive {parent} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(destination, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def tree(directory):
    """Every file under `directory` by relative path, with its bytes."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def numbers(name, data):
    """(place, value) of each number of a .json or .csv file, in reading order."""
    if name.endswith(".json"):
        return list(_json_numbers(json.loads(data), ""))
    found = []
    for line, text in enumerate(data.decode().splitlines(), 1):
        for field, value in enumerate(text.split(","), 1):
            try:
                found.append((f"line {line} field {field}", float(value)))
            except ValueError:
                pass
    return found


def _json_numbers(node, place):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_numbers(value, f"{place}.{key}" if place else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _json_numbers(value, f"{place}[{index}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield place, float(node)


def largest_change(name, before, after):
    """One line on how far the numbers of file `name` moved between two versions."""
    old, new = numbers(name, before), numbers(name, after)
    if [place for place, _ in old] != [place for place, _ in new]:
        return f"{name}: its numbers do not pair up"
    worst, where = 0.0, None
    for (place, a), (_, b) in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        change = abs(a - b) / max(abs(a), abs(b))
        change = math.inf if math.isnan(change) else change  # one side not finite
        if change > worst:
            worst, where = change, place
    if where is None:
        return f"{name}: its numbers are the same"
    return f"{name}: largest relative change {worst:.2g} at {where}"


def run(side, index, argv):
    """Exit code, stdout, stderr and output tree of one command on one side."""
    cwd = side / "runs" / str(index)
    cwd.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (cwd / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "fraclab.cli", *argv, "--no-timestamp", "--out", "out"],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    out = cwd / "out"
    # a traceback or warning names the copy's own path
    stdout, stderr = (text.replace(str(side), "<side>") for text in (proc.stdout, proc.stderr))
    return proc.returncode, stdout, stderr, tree(out) if out.is_dir() else {}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/same_outputs.py PARENT")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as temp:
        parent, change = Path(temp) / "parent", Path(temp) / "change"
        export_parent(argv[0], parent)
        shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
        differing = 0
        for index, command in enumerate(COMMANDS):
            before, after = run(parent, index, command), run(change, index, command)
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), before, after) if a != b]
            names = before[3].keys() | after[3].keys()
            files = sorted(name for name in names if before[3].get(name) != after[3].get(name))
            if files:
                fields.append("tree (" + ", ".join(files) + ")")
            differing += bool(fields)
            verdict = "differs in " + "; ".join(fields) if fields else "same"
            print(f"{' '.join(command)} [exit {after[0]}]: {verdict}", flush=True)
            for name in files:
                if name.endswith((".csv", ".json")) and name in before[3] and name in after[3]:
                    print("    " + largest_change(name, before[3][name], after[3][name]), flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands the same")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
