"""Record a baseline: every workload untraced and traced, into baseline.json.

    python3 perfbench/baseline.py [--seed 0]

Runs each workload untraced and traced, as run.py does, for the run length
in BENCHMARK.json, and stores the end-to-end metrics with their
quartiles and sample counts, the per-layer metrics, each module's share of
the traced wall time (from span self times, so shares do not overlap) and
the run environment.
"""

import argparse
import json
import sys

import run

# Module groups whose share of traced wall time each workload is built to
# be dominated by.
PREDICTED = {
    "refine": ("spectra", "operator"),
    "dichotomy": ("spectra", "operator", "control", "dynamics"),
    "artifacts": ("cli.hum", "output", "svgplot"),
}


def layer_of(span):
    """Group of a span: its module, except that cli.hum stands apart."""
    return "cli.hum" if span == "cli.hum" else span.split(".", 1)[0]


def shares(spans, wall):
    # cli.sweep's self time is its wait for worker threads, whose spans are
    # counted on their own threads, so it is left out.
    groups = {}
    for name, (_, _, self_s) in spans.items():
        if name != "cli.sweep":
            groups[layer_of(name)] = groups.get(layer_of(name), 0.0) + self_s
    return {k: v / wall for k, v in sorted(groups.items(), key=lambda kv: -kv[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    record = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        plain, plain_summary = run.run(workload, args.seed, seconds, 0)
        traced, traced_summary = run.run(workload, args.seed, seconds, 1)
        wall = traced["metrics"]["trace.wall_s"]["value"]
        layer_shares = shares(traced_summary["spans"], wall)
        predicted = sum(layer_shares.get(g, 0.0) for g in PREDICTED[workload])
        others = {g: s for g, s in layer_shares.items() if g not in PREDICTED[workload]}
        record["environment"] = plain_summary["environment"]
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "end_to_end_samples": plain_summary["samples"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_time_share": layer_shares,
            "predicted_layers": list(PREDICTED[workload]),
            "predicted_share": predicted,
            "predicted_share_is_largest": predicted > max(others.values(), default=0.0),
        }
        print(f"{workload}: predicted share {predicted:.3f}", flush=True)
    with open(run.HERE / "baseline.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
