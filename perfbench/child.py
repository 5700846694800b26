"""One benchmark pass in a fresh interpreter.

Usage: child.py LAUNCH_TIME SPEC_PATH

LAUNCH_TIME is the CLOCK_MONOTONIC reading taken by the parent just before
it started this interpreter; set-up time runs from there until fraclab.cli
is imported.  SPEC_PATH names a JSON file {"root", "trace", "cells"} where
each cell is {"id", "subcommand", "argv"}; an empty cell list makes a set-up
probe.  The pass runs every cell through fraclab.cli.main in this process and
prints one JSON line: set-up and wall seconds, peak RSS, each cell's exit
code and stdout, the run environment (probes only) and, when traced, span
aggregates.  BLAS threads are pinned by the parent through the environment.
"""

import time


def _main():
    import sys

    launch = float(sys.argv[1])
    import fraclab.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - launch

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    with open(sys.argv[2], encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = os.path.join(spec["root"], "src", "fraclab")
    if os.path.dirname(os.path.realpath(fraclab.cli.__file__)) != os.path.realpath(expected):
        print(f"perfbench: imported {fraclab.cli.__file__}, expected {expected}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    start = time.perf_counter()
    for cell in spec["cells"]:
        out = io.StringIO()
        main = fraclab.cli.main
        if tracer is not None:
            main = tracer.span(f"cli.{cell['subcommand']}", main)
        with contextlib.redirect_stdout(out):
            try:
                rc = main(cell["argv"])
            except Exception:  # a crashing cell is a failed cell; the pass goes on
                rc = "uncaught exception"
                out.write(traceback.format_exc())
        results.append({"id": cell["id"], "rc": rc, "stdout": out.getvalue()})
    wall_s = time.perf_counter() - start

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": results,
    }
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    if not spec["cells"]:
        import environment

        record["environment"] = environment.describe()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
