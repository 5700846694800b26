"""Command-line front end: subcommands, artifact emission, exit codes.

Subcommands: spectrum, gaps, evolve, observability, sharpness, hum,
pohozaev, sweep.  Every run writes its artifacts plus a manifest with
SHA-256 digests into the output directory; --verify re-hashes a previous
run's files and reports drift.  Exit codes: 0 success, 1 drift under
--verify, 2 config error, 3 numerical failure, 4 I/O error.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import __version__
from .config import _KEY_SPECS, RunConfig, load_config, override_section, resolved_values
from .control import VANISHING_DECAY, _constants_table, hum_control, sharpness_experiment
from .dynamics import (
    ModalState,
    WaveModalState,
    modal_invariants,
    reconstruct,
    schrodinger_evolve,
    wave_energy,
    wave_evolve,
)
from .errors import (
    ConfigError,
    FraclabError,
    IllConditionedError,
    NumericalError,
    UncontrollableError,
)
from .identity import (
    SKIP,
    _layer_width,
    eigen_pohozaev_check,
    schrodinger_pohozaev_report,
    two_sided_estimate_ratio,
)
from .operator import Grid, assemble_operator
from .output import Emitter, csv_text, json_text, utc_stamp, verify_manifest, write_manifest
from .regions import ObservationRegion
from .spectra import asymptotic_eigenvalue, compute_spectrum
from .svgplot import Series, line_plot

SPECTRUM_HEADER = ("k", "lambda_numeric", "lambda_asymptotic", "gap_numeric", "gap_asymptotic")
TABLE_HEADER = ("beta", "K", "T", "epsilon", "obs_constant", "condition")


def _spectrum_for(beta, n, modes):
    return compute_spectrum(assemble_operator(Grid(n), beta), modes)


def _check_span(modes, n):
    if modes > n:
        raise ConfigError(f"modes = {modes} exceeds the number of interior nodes n = {n}")


def _check_trace_grid(n):
    need = 2 * (_layer_width(n) + SKIP)
    if n < need:
        raise ConfigError(
            f"n = {n} is too coarse for boundary-layer fitting (needs at least {need} nodes)"
        )


def _make_datum(spec, modes, seed):
    """Coefficient vector from a datum spec: zero | random | mode list."""
    if spec == "zero":
        return np.zeros(modes, dtype=complex)
    if spec == "random":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        return a / np.linalg.norm(a)
    wanted = [int(p) for p in spec.split(",")]
    if max(wanted) > modes:
        raise ConfigError(f"datum mode {max(wanted)} exceeds the mode span {modes}")
    a = np.zeros(modes, dtype=complex)
    for position, k in enumerate(wanted):
        a[k - 1] = 1j**position
    return a / np.linalg.norm(a)


def _spectrum_rows(beta, lam, count):
    """Rows (k, lambda, asymptotic, gap, asymptotic gap) for k = 1..count.

    A numeric gap past the last computed eigenvalue is nan.
    """
    asym = asymptotic_eigenvalue(beta, np.arange(1, count + 2))
    rows = []
    for i in range(count):
        gap_num = float(lam[i + 1] - lam[i]) if i + 1 < len(lam) else float("nan")
        rows.append((i + 1, float(lam[i]), float(asym[i]), gap_num, float(asym[i + 1] - asym[i])))
    return rows


def cmd_spectrum(cfg, emitter, stamp, prefix=""):
    _check_span(cfg.modes, cfg.n)
    lam = _spectrum_for(cfg.beta, cfg.n, min(cfg.modes + 1, cfg.n)).eigenvalues
    rows = _spectrum_rows(cfg.beta, lam, cfg.modes)
    emitter.write(prefix + "spectrum.csv", csv_text(SPECTRUM_HEADER, rows))
    ks = [r[0] for r in rows]
    emitter.write(
        prefix + "spectrum.svg",
        line_plot(
            [
                Series("numeric", tuple(ks), tuple(r[1] for r in rows), markers=True),
                Series("asymptotic", tuple(ks), tuple(r[2] for r in rows)),
            ],
            title=f"eigenvalues, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_k",
            timestamp=stamp,
        ),
    )
    return f"spectrum: beta={cfg.beta:g} n={cfg.n} modes={cfg.modes} lambda_1={rows[0][1]:.12g}"


def cmd_gaps(cfg, emitter, stamp, prefix=""):
    if cfg.modes < 2:
        raise ConfigError("gaps needs modes >= 2")
    _check_span(cfg.modes, cfg.n)
    lam = _spectrum_for(cfg.beta, cfg.n, cfg.modes).eigenvalues
    rows = _spectrum_rows(cfg.beta, lam, cfg.modes - 1)
    emitter.write(prefix + "gaps.csv", csv_text(SPECTRUM_HEADER, rows))
    emitter.write(
        prefix + "gaps.svg",
        line_plot(
            [
                Series("gap numeric", tuple(r[0] for r in rows), tuple(r[3] for r in rows), markers=True),
                Series("gap asymptotic", tuple(r[0] for r in rows), tuple(r[4] for r in rows)),
            ],
            title=f"eigenvalue gaps, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_(k+1) - lambda_k",
            timestamp=stamp,
        ),
    )
    return f"gaps: beta={cfg.beta:g} n={cfg.n} rows={len(rows)}"


def cmd_evolve(cfg, emitter, stamp, prefix=""):
    _check_span(cfg.modes, cfg.n)
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    a = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    times = np.linspace(0.0, cfg.horizon, cfg.samples)
    if cfg.equation == "schrodinger":
        state = ModalState(coefficients=a, time=0.0, spectrum=sp, basis="phi")
        header = ("t", "mass", "energy", "energy2")
        rows = []
        for t in times:
            rows.append((float(t),) + modal_invariants(schrodinger_evolve(state, t)))
        final = schrodinger_evolve(state, cfg.horizon)
    else:
        state = WaveModalState(position=a, velocity=np.zeros_like(a), time=0.0, spectrum=sp)
        header = ("t", "energy")
        rows = [(float(t), wave_energy(wave_evolve(state, t))) for t in times]
        final = wave_evolve(state, cfg.horizon)
    emitter.write(prefix + "evolve.csv", csv_text(header, rows))

    first = rows[0][1:]
    drift = [max(abs(r[j + 1] - first[j]) for r in rows) for j in range(len(first))]
    summary = {
        "equation": cfg.equation,
        "beta": cfg.beta,
        "n": cfg.n,
        "modes": cfg.modes,
        "T": cfg.horizon,
        "samples": cfg.samples,
        "datum": cfg.datum,
        "seed": cfg.seed,
        "initial_invariants": list(first),
        "final_invariants": list(rows[-1][1:]),
        "max_invariant_drift": drift,
    }
    emitter.write(prefix + "evolve.json", json_text(summary))

    x = sp.grid.nodes
    if cfg.equation == "schrodinger":
        u0 = np.real(reconstruct(state))
        uT = np.real(reconstruct(final))
    else:
        u0 = np.real(sp.vectors[:, : len(a)] @ state.position)
        uT = np.real(sp.vectors[:, : len(a)] @ final.position)
    emitter.write(
        prefix + "evolve.svg",
        line_plot(
            [
                Series("Re u(x, 0)", tuple(x), tuple(u0)),
                Series(f"Re u(x, {cfg.horizon:g})", tuple(x), tuple(uT)),
            ],
            title=f"{cfg.equation} evolution, beta={cfg.beta:g}",
            xlabel="x",
            ylabel="u",
            timestamp=stamp,
        ),
    )
    return f"evolve: {cfg.equation} beta={cfg.beta:g} T={cfg.horizon:g} max_drift={max(drift):.3e}"


def _table_command(name, cfg, emitter, stamp, prefix=""):
    for k in cfg.mode_counts:
        _check_span(k, cfg.n)
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    spectra = {b: _spectrum_for(b, cfg.n, cfg.mode_counts[-1]) for b in cfg.betas}
    if len(cfg.mode_counts) >= 2:
        table = sharpness_experiment(spectra, cfg.mode_counts, region, cfg.horizon)
        constants, conditions = table.constants, table.conditions
        decay = [float(r) for r in table.decay_ratios]
        verdicts = list(table.verdicts)
    else:
        constants, conditions = _constants_table(spectra, cfg.mode_counts, region, cfg.horizon)
        decay = None
        verdicts = None
    betas = sorted(cfg.betas)
    rows = []
    for i, b in enumerate(betas):
        for j, k in enumerate(cfg.mode_counts):
            rows.append(
                (b, k, cfg.horizon, cfg.epsilon, float(constants[i, j]), float(conditions[i, j]))
            )
    emitter.write(prefix + f"{name}.csv", csv_text(TABLE_HEADER, rows))
    summary = {
        "betas": list(betas),
        "mode_counts": list(cfg.mode_counts),
        "n": cfg.n,
        "T": cfg.horizon,
        "epsilon": cfg.epsilon,
        "constants": constants.tolist(),
        "conditions": conditions.tolist(),
        "decay_ratios": decay,
        "verdicts": verdicts,
        "vanishing_threshold": VANISHING_DECAY,
    }
    emitter.write(prefix + f"{name}.json", json_text(summary))
    if verdicts is not None:
        printed = ", ".join(f"beta={b:g}: {v}" for b, v in zip(betas, verdicts))
    else:
        printed = "single cell, no verdict"
    return f"{name}: n={cfg.n} T={cfg.horizon:g} epsilon={cfg.epsilon:g}  {printed}"


def cmd_hum(cfg, emitter, stamp, prefix=""):
    _check_span(cfg.modes, cfg.n)
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    a0 = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    state = ModalState(coefficients=a0, time=0.0, spectrum=sp, basis="phi")
    result = hum_control(state, region, cfg.horizon)
    initial = float(np.linalg.norm(a0))
    report = {
        "beta": cfg.beta,
        "n": cfg.n,
        "modes": cfg.modes,
        "T": cfg.horizon,
        "epsilon": cfg.epsilon,
        "datum": cfg.datum,
        "seed": cfg.seed,
        "initial_norm": initial,
        "final_state_norm": result.final_state_norm,
        "relative_final_norm": result.final_state_norm / initial if initial > 0 else 0.0,
        "observability": result.observability,
        "gramian_condition": result.gramian_condition,
        "identity_lhs": result.identity_lhs,
        "identity_rhs": result.identity_rhs,
        "identity_residual": result.identity_residual,
        "region": [list(pair) for pair in result.region.intervals],
        "steering_re": result.hum_coefficients.real.tolist(),
        "steering_im": result.hum_coefficients.imag.tolist(),
    }
    emitter.write(prefix + "hum.json", json_text(report))
    if cfg.control_csv:
        idx = region.node_indices(sp.grid)
        header = ["t"] + [f"{part}_{i + 1}" for i in idx for part in ("re", "im")]
        values = result.control.values
        table = np.empty((values.shape[0], 1 + 2 * values.shape[1]))
        table[:, 0] = result.control.dt * np.arange(values.shape[0])
        table[:, 1::2] = values.real
        table[:, 2::2] = values.imag
        emitter.write(prefix + "control.csv", csv_text(header, table.tolist()))
    return (
        f"hum: beta={cfg.beta:g} K={cfg.modes} T={cfg.horizon:g} "
        f"final/initial={report['relative_final_norm']:.3e} "
        f"condition={result.gramian_condition:.3e}"
    )


def cmd_pohozaev(cfg, emitter, stamp, prefix=""):
    _check_span(cfg.modes, cfg.n)
    _check_trace_grid(cfg.n)
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    a = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    state = ModalState(coefficients=a, time=0.0, spectrum=sp, basis="phi")
    report = schrodinger_pohozaev_report(state, cfg.horizon, cfg.time_intervals)
    active = [k + 1 for k in range(cfg.modes) if abs(a[k]) > 0.0]
    checks = [
        {"mode": k, "lhs": c.lhs, "rhs": c.rhs, "residual": c.residual}
        for k in active[:6]
        for c in (eigen_pohozaev_check(sp, k),)
    ]
    ratio = None
    if np.linalg.norm(a) > 0.0:
        ratio = two_sided_estimate_ratio(state, cfg.horizon, cfg.time_intervals).ratio
    payload = {
        "beta": cfg.beta,
        "n": cfg.n,
        "modes": cfg.modes,
        "T": cfg.horizon,
        "time_intervals": cfg.time_intervals,
        "datum": cfg.datum,
        "seed": cfg.seed,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "dirichlet_term": report.dirichlet_term,
        "cross_term": report.cross_term,
        "residual": report.residual,
        "two_sided_ratio": ratio,
        "eigen_checks": checks,
    }
    emitter.write(prefix + "pohozaev.json", json_text(payload))
    return (
        f"pohozaev: beta={cfg.beta:g} n={cfg.n} datum={cfg.datum} "
        f"lhs={report.lhs:.6g} rhs={report.rhs:.6g} residual={report.residual:.3e}"
    )


# Each cell command reads the config section of its own name, writes its
# artifacts under `prefix` and returns its one-line summary.
_CELL_COMMANDS = {
    "spectrum": (cmd_spectrum, "eigenvalue table and plot against the asymptotic law"),
    "gaps": (cmd_gaps, "consecutive eigenvalue gaps against the asymptotic law"),
    "evolve": (cmd_evolve, "free Schrodinger or wave evolution with conservation records"),
    "observability": (
        partial(_table_command, "observability"),
        "observability constants over a (beta, K) table",
    ),
    "sharpness": (
        partial(_table_command, "sharpness"),
        "observability decay dichotomy across the half-order point",
    ),
    "hum": (cmd_hum, "HUM control synthesis with verification diagnostics"),
    "pohozaev": (cmd_pohozaev, "boundary-trace identity reports"),
}


def cmd_sweep(config, emitter, stamp, jobs=None):
    cfg = config.sweep
    workers = jobs if jobs is not None else cfg.jobs
    runner = _CELL_COMMANDS[cfg.command][0]
    betas = list(cfg.betas)
    prefixes = [f"beta{b:g}_" for b in betas]
    if len(set(prefixes)) < len(prefixes):
        raise ConfigError(
            f"sweep betas {', '.join(map(repr, betas))} share a file prefix; "
            "they must differ at 6 significant digits"
        )

    def run_cell(beta, prefix):
        cell = override_section(config, cfg.command, beta=beta)
        buffer = Emitter(directory=None, timestamp=emitter.timestamp)
        line = runner(getattr(cell, cfg.command), buffer, stamp, prefix=prefix)
        return buffer, line

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, betas, prefixes))
    else:
        cells = [run_cell(b, p) for b, p in zip(betas, prefixes)]
    for buffer, _ in cells:  # single writer, deterministic cell order
        emitter.absorb(buffer)
    lines = [line for _, line in cells]
    lines.append(f"sweep: {cfg.command} over betas={[f'{b:g}' for b in betas]} jobs={workers}")
    return "\n".join(lines)


# Flags taking a value, named after their config keys.  Argparse keeps the
# text; _validated_overrides runs it through the config file's parser.
_VALUE_FLAGS = {
    "beta": "fractional order in (0, 1]",
    "n": "number of interior grid nodes",
    "modes": "mode span K",
    "T": "time horizon",
    "epsilon": "boundary-layer width of the region",
    "seed": "seed for randomized data",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Numerical laboratory for the restricted fractional Laplacian on (-1, 1).",
    )
    parser.add_argument("--version", action="version", version=f"fraclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: text for name, (_, text) in _CELL_COMMANDS.items()}
    commands["sweep"] = "run one subcommand over a list of orders"
    for name, text in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="DIR", help="output directory (default fraclab-out)")
        for key, flag_help in _VALUE_FLAGS.items():
            p.add_argument(f"--{key}", help=flag_help)
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamps everywhere for byte-reproducible outputs",
        )
        p.add_argument(
            "--verify",
            action="store_true",
            help="re-hash the files listed in DIR's manifest and report drift",
        )
        if name == "sweep":
            p.add_argument("--jobs", help="concurrent sweep cells (default 1)")
    return parser


def _validated_overrides(args):
    """Flag values parsed as the same keys in a config file, by field name."""
    overrides = {}
    for key in (*_VALUE_FLAGS, "jobs"):
        text = getattr(args, key, None)  # only sweep has --jobs
        if text is not None:
            field, parser = _KEY_SPECS[key]
            try:
                overrides[field] = parser(text)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    return overrides


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out_dir = args.out or "fraclab-out"
    try:
        if args.verify:
            ok, lines = verify_manifest(out_dir)
            for line in lines:
                print(line)
            print("verify: ok" if ok else "verify: drift detected")
            return 0 if ok else 1

        config = load_config(args.config) if args.config else RunConfig()
        overrides = _validated_overrides(args)
        jobs = overrides.pop("jobs", None)
        if args.command == "sweep":
            # --beta narrows the sweep list; the rest flows into the cells
            beta = overrides.pop("beta", None)
            if beta is not None:
                config = override_section(config, "sweep", beta=beta)
            config = override_section(config, config.sweep.command, **overrides)
        else:
            config = override_section(config, args.command, **overrides)
        if args.out is None and config.out is not None:
            out_dir = config.out
        os.makedirs(out_dir, exist_ok=True)
        emitter = Emitter(directory=out_dir, timestamp=not args.no_timestamp)
        stamp = None if args.no_timestamp else utc_stamp()

        if args.command == "sweep":
            print(cmd_sweep(config, emitter, stamp, jobs=jobs))
            echo = resolved_values(config.sweep)
            echo["cell"] = resolved_values(getattr(config, config.sweep.command))
        else:
            section = getattr(config, args.command)
            print(_CELL_COMMANDS[args.command][0](section, emitter, stamp))
            echo = resolved_values(section)
        write_manifest(emitter, args.command, echo, __version__)
        print(f"wrote {len(emitter.artifacts)} files to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"fraclab: config error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedError, UncontrollableError, NumericalError) as exc:
        body = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "diagnostics": getattr(exc, "diagnostics", None) or {},
            }
        }
        print(json_text(body), end="")
        print(f"fraclab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except FraclabError as exc:
        print(f"fraclab: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fraclab: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
