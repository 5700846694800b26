"""Regenerate reference.json, the values the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload at seed 0 and stores, per workload
and cell id, the values checks.extract reads from its outputs.  The stored values are
seed-independent; regenerate them only when a change to the program is
meant to change its numbers, and say so in that change.
"""

import json
import shutil
import sys
import time

import run


def reference_for(workload, scale="full"):
    """Reference values of one pass of `workload`, keyed by cell id."""
    cells = run.workloads.cells(workload, 0, scale)
    pass_dir = run.WORK / f"reference-{workload}-{scale}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    try:
        record = run.run_child(cells, pass_dir, False, time.monotonic() + run.RUN_DEADLINE_S)
        values = {}
        for cell, result in zip(cells, record["cells"]):
            if result["rc"] != 0:
                raise run.BenchmarkError(f"{workload} cell {cell.id} exited with {result['rc']}")
            extracted = run.checks.extract(cell.kind, pass_dir / cell.id) if cell.kind != "verify" else None
            if extracted is not None:
                values[cell.id] = extracted
        return values
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def main():
    reference = {}
    try:
        for workload in run.workloads.WORKLOADS:
            reference[workload] = reference_for(workload)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, reference.values()))} cells to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
