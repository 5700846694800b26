"""Correctness gate: each cell's outputs against stored reference values.

Values are compared with tolerances, never by byte digests, so that a
legitimate change of eigensolver, which moves the last bits, still passes.
Reference values were extracted from the outputs of the commit that defined
the benchmark (see make_reference.py) and are independent of the seed.
"""

import csv
import json
import os

# lambda_1 of the half Laplacian on (-1, 1): Kulczycki, Kwasnicki, Malecki &
# Stos, Proc. London Math. Soc. 2010.
LAMBDA1_HALF = 1.1577738836977

EIGENVALUE_RTOL = 1e-9
# Observability constants in the uniform regime (beta >= 1/2); below 1/2
# they collapse towards rounding level and only the verdict is checked.
CONSTANT_RTOL = 1e-6
POHOZAEV_RTOL = 1e-6
POHOZAEV_ATOL = 1e-9
HUM_FINAL_NORM = 1e-9
HUM_IDENTITY_RESIDUAL = 1e-9
EVOLVE_DRIFT = 1e-10
CONTROL_CSV_ROWS = 1001


def _read_json(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return json.load(handle)


def _column(directory, name, column):
    with open(os.path.join(directory, name), encoding="utf-8", newline="") as handle:
        return [float(row[column]) for row in csv.DictReader(handle)]


def _sweep_files(directory, command):
    """Map beta label -> file name for the cells of a sweep."""
    suffix = f"_{command}.csv"
    return {
        name[len("beta") : -len(suffix)]: name
        for name in sorted(os.listdir(directory))
        if name.startswith("beta") and name.endswith(suffix)
    }


def extract(kind, directory):
    """Reference values of a cell's outputs, or None for threshold-only kinds."""
    if kind in ("spectrum", "gaps"):
        return {"eigenvalues": _column(directory, f"{kind}.csv", "lambda_numeric")}
    if kind in ("sweep_spectrum", "sweep_gaps"):
        command = kind.split("_", 1)[1]
        return {
            beta: _column(directory, name, "lambda_numeric")
            for beta, name in _sweep_files(directory, command).items()
        }
    if kind in ("sharpness", "observability"):
        table = _read_json(directory, f"{kind}.json")
        return {"betas": table["betas"], "mode_counts": table["mode_counts"], "constants": table["constants"]}
    if kind == "pohozaev":
        report = _read_json(directory, "pohozaev.json")
        return {
            "residual": report["residual"],
            "eigen_residuals": [c["residual"] for c in report["eigen_checks"]],
        }
    return None


def _close(value, expected, rtol, atol=0.0):
    return abs(value - expected) <= atol + rtol * abs(expected)


def _compare_list(label, values, expected, rtol, atol=0.0):
    if len(values) != len(expected):
        return [f"{label}: {len(values)} values, reference has {len(expected)}"]
    return [
        f"{label}[{i}] = {v!r}, reference {e!r}"
        for i, (v, e) in enumerate(zip(values, expected))
        if not _close(v, e, rtol, atol)
    ]


def _verdict_problems(kind, directory):
    table = _read_json(directory, f"{kind}.json")
    if table["verdicts"] is None:
        return []
    problems = []
    for beta, verdict in zip(table["betas"], table["verdicts"]):
        want = "vanishing" if beta < 0.5 else "uniform"
        if verdict != want:
            problems.append(f"{kind} verdict at beta={beta:g} is {verdict}, expected {want}")
    return problems


def _gap_trend_problems(directory):
    # numeric gaps shrink with k below beta = 1/2 and grow above it
    problems = []
    for beta, name in _sweep_files(directory, "gaps").items():
        gaps = _column(directory, name, "gap_numeric")
        b = float(beta)
        if b < 0.5 and not gaps[-1] < gaps[0]:
            problems.append(f"gaps at beta={beta} do not shrink: {gaps[0]:.6g} -> {gaps[-1]:.6g}")
        if b > 0.5 and not gaps[-1] > gaps[0]:
            problems.append(f"gaps at beta={beta} do not grow: {gaps[0]:.6g} -> {gaps[-1]:.6g}")
    return problems


def _hum_problems(directory, control_csv):
    report = _read_json(directory, "hum.json")
    problems = []
    if not report["relative_final_norm"] <= HUM_FINAL_NORM:
        problems.append(f"hum relative_final_norm {report['relative_final_norm']:.3e} > {HUM_FINAL_NORM:g}")
    if not report["identity_residual"] <= HUM_IDENTITY_RESIDUAL:
        problems.append(f"hum identity_residual {report['identity_residual']:.3e} > {HUM_IDENTITY_RESIDUAL:g}")
    path = os.path.join(directory, "control.csv")
    if control_csv:
        with open(path, "rb") as handle:
            lines = handle.read().count(b"\n")
        if lines != CONTROL_CSV_ROWS + 1:
            problems.append(f"control.csv has {lines} lines, expected {CONTROL_CSV_ROWS + 1}")
    elif os.path.exists(path):
        problems.append("control.csv written although control_csv = false")
    return problems


def _evolve_problems(directory):
    report = _read_json(directory, "evolve.json")
    scale = max(1.0, max(abs(v) for v in report["initial_invariants"]))
    worst = max(report["max_invariant_drift"])
    if not worst <= EVOLVE_DRIFT * scale:
        return [f"evolve invariant drift {worst:.3e} > {EVOLVE_DRIFT:g} x {scale:g}"]
    return []


def _reference_problems(kind, observed, expected):
    if kind in ("spectrum", "gaps"):
        return _compare_list("eigenvalues", observed["eigenvalues"], expected["eigenvalues"], EIGENVALUE_RTOL)
    if kind in ("sweep_spectrum", "sweep_gaps"):
        if sorted(observed) != sorted(expected):
            return [f"sweep cells {sorted(observed)}, reference {sorted(expected)}"]
        problems = []
        for beta in expected:
            problems += _compare_list(f"beta={beta} eigenvalues", observed[beta], expected[beta], EIGENVALUE_RTOL)
        return problems
    if kind in ("sharpness", "observability"):
        if observed["betas"] != expected["betas"] or observed["mode_counts"] != expected["mode_counts"]:
            return [f"{kind} table shape differs from the reference"]
        problems = []
        for beta, row, want in zip(expected["betas"], observed["constants"], expected["constants"]):
            if beta >= 0.5:
                problems += _compare_list(f"{kind} constants at beta={beta:g}", row, want, CONSTANT_RTOL)
        return problems
    if kind == "pohozaev":
        problems = []
        if not _close(observed["residual"], expected["residual"], POHOZAEV_RTOL, POHOZAEV_ATOL):
            problems.append(f"pohozaev residual {observed['residual']!r}, reference {expected['residual']!r}")
        problems += _compare_list(
            "pohozaev eigen residuals",
            observed["eigen_residuals"],
            expected["eigen_residuals"],
            POHOZAEV_RTOL,
            POHOZAEV_ATOL,
        )
        return problems
    return []


def check_cell(cell, directory, rc, stdout, reference):
    """Problems found in one cell's outputs; an empty list means it passed.

    `reference` maps cell ids to values from `extract`.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if cell.kind == "verify":
        return [] if "verify: ok" in stdout else ["verify did not report ok"]
    try:
        observed = extract(cell.kind, directory)
        problems = []
        if observed is not None:
            if cell.id not in reference:
                return [f"no reference values for cell {cell.id}"]
            problems += _reference_problems(cell.kind, observed, reference[cell.id])
        if cell.kind in ("sharpness", "observability"):
            problems += _verdict_problems(cell.kind, directory)
        elif cell.kind == "sweep_gaps":
            problems += _gap_trend_problems(directory)
        elif cell.kind in ("hum", "hum_csv"):
            problems += _hum_problems(directory, control_csv=cell.kind == "hum_csv")
        elif cell.kind == "evolve":
            problems += _evolve_problems(directory)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def lambda1(kind, directory):
    """First beta = 1/2 eigenvalue reported by a spectrum, gaps or sweep cell."""
    observed = extract(kind, directory)
    if kind.startswith("sweep_"):
        return observed["0.5"][0]
    return observed["eigenvalues"][0]


def lambda1_error(value):
    return abs(value - LAMBDA1_HALF) / LAMBDA1_HALF
