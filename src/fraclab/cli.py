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
from dataclasses import asdict
from functools import partial

import numpy as np

from . import __version__
from .config import _PARSERS, RunConfig, load_config, override_section
from .control import VANISHING_DECAY, VERIFICATION_TOLERANCE, hum_control, sharpness_experiment
from .dynamics import (
    ModalState,
    WaveModalState,
    modal_invariants,
    schrodinger_evolve,
    wave_energy,
    wave_evolve,
)
from .errors import ConfigError, FraclabError, NumericalError
from .identity import (
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


def _cell_prefixes(betas):
    """File-name prefix of each sweep cell, one per order."""
    return [f"beta{b:g}_" for b in betas]


def _check_run(config, command):
    """The resolved cell section of a run (for sweep, its cells' section),
    refused with a ConfigError, before any directory is made or eigensolve
    run, when its values break a rule of its command."""
    name = config.sweep.command if command == "sweep" else command
    cfg = getattr(config, name)
    if hasattr(cfg, "modes"):
        span, largest = f"modes = {cfg.modes}", cfg.modes
    else:  # the table commands; the parser keeps the counts ascending
        span, largest = f"mode_counts entry {cfg.mode_counts[-1]}", cfg.mode_counts[-1]
    if largest > cfg.n:
        raise ConfigError(f"{span} exceeds the number of interior nodes n = {cfg.n}")
    if command == "sweep":
        betas = config.sweep.betas
        if len(set(_cell_prefixes(betas))) < len(betas):
            raise ConfigError(
                f"sweep betas {', '.join(map(repr, betas))} share a file prefix; "
                "they must differ at 6 significant digits"
            )
    if name == "gaps" and cfg.modes < 2:
        raise ConfigError("gaps needs modes >= 2")
    if name == "pohozaev":
        try:
            _layer_width(cfg.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if hasattr(cfg, "epsilon"):
        try:
            ObservationRegion.boundary_layers(cfg.epsilon).node_indices(Grid(cfg.n))
        except ValueError as exc:
            raise ConfigError(f"epsilon = {cfg.epsilon!r} at n = {cfg.n}: {exc}") from None
    if getattr(cfg, "datum", "random") not in ("zero", "random"):
        wanted = max(int(p) for p in cfg.datum.split(","))
        if wanted > cfg.modes:
            raise ConfigError(f"datum mode {wanted} exceeds the mode span {cfg.modes}")
    return cfg


def _make_datum(spec, modes, seed):
    """Coefficient vector from a datum spec: zero | random | mode list."""
    if spec == "zero":
        return np.zeros(modes, dtype=complex)
    if spec == "random":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        return a / np.linalg.norm(a)
    a = np.zeros(modes, dtype=complex)
    for position, k in enumerate(int(p) for p in spec.split(",")):
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


def cmd_spectrum(cfg, emitter):
    lam = _spectrum_for(cfg.beta, cfg.n, min(cfg.modes + 1, cfg.n)).eigenvalues
    rows = _spectrum_rows(cfg.beta, lam, cfg.modes)
    emitter.write("spectrum.csv", csv_text(SPECTRUM_HEADER, rows))
    ks = [r[0] for r in rows]
    emitter.write(
        "spectrum.svg",
        line_plot(
            [
                Series("numeric", tuple(ks), tuple(r[1] for r in rows), markers=True),
                Series("asymptotic", tuple(ks), tuple(r[2] for r in rows)),
            ],
            title=f"eigenvalues, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_k",
            timestamp=emitter.stamp,
        ),
    )
    return f"spectrum: beta={cfg.beta:g} n={cfg.n} modes={cfg.modes} lambda_1={rows[0][1]:.12g}"


def cmd_gaps(cfg, emitter):
    lam = _spectrum_for(cfg.beta, cfg.n, cfg.modes).eigenvalues
    rows = _spectrum_rows(cfg.beta, lam, cfg.modes - 1)
    emitter.write("gaps.csv", csv_text(SPECTRUM_HEADER, rows))
    emitter.write(
        "gaps.svg",
        line_plot(
            [
                Series("gap numeric", tuple(r[0] for r in rows), tuple(r[3] for r in rows), markers=True),
                Series("gap asymptotic", tuple(r[0] for r in rows), tuple(r[4] for r in rows)),
            ],
            title=f"eigenvalue gaps, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_(k+1) - lambda_k",
            timestamp=emitter.stamp,
        ),
    )
    return f"gaps: beta={cfg.beta:g} n={cfg.n} rows={len(rows)}"


def cmd_evolve(cfg, emitter):
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    a = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    times = np.linspace(0.0, cfg.T, cfg.samples)
    # linspace ends exactly at T, so the last sampled state is the end state
    if cfg.equation == "schrodinger":
        state = ModalState(coefficients=a, spectrum=sp)
        header = ("t", "mass", "energy", "energy2")
        states = [schrodinger_evolve(state, t) for t in times]
        rows = [(float(t),) + modal_invariants(s) for t, s in zip(times, states)]
        start, end = state.coefficients, states[-1].coefficients
    else:
        state = WaveModalState(position=a, velocity=np.zeros_like(a), spectrum=sp)
        header = ("t", "energy")
        states = [wave_evolve(state, t) for t in times]
        rows = [(float(t), wave_energy(s)) for t, s in zip(times, states)]
        start, end = state.position, states[-1].position
    emitter.write("evolve.csv", csv_text(header, rows))

    first = rows[0][1:]
    drift = [max(abs(r[j + 1] - first[j]) for r in rows) for j in range(len(first))]
    summary = asdict(cfg)
    summary.update(
        initial_invariants=list(first),
        final_invariants=list(rows[-1][1:]),
        max_invariant_drift=drift,
    )
    emitter.write("evolve.json", json_text(summary))

    x = sp.grid.nodes
    u0, uT = np.real(sp.vectors @ start), np.real(sp.vectors @ end)
    emitter.write(
        "evolve.svg",
        line_plot(
            [
                Series("Re u(x, 0)", tuple(x), tuple(u0)),
                Series(f"Re u(x, {cfg.T:g})", tuple(x), tuple(uT)),
            ],
            title=f"{cfg.equation} evolution, beta={cfg.beta:g}",
            xlabel="x",
            ylabel="u",
            timestamp=emitter.stamp,
        ),
    )
    return f"evolve: {cfg.equation} beta={cfg.beta:g} T={cfg.T:g} max_drift={max(drift):.3e}"


def _table_command(name, cfg, emitter):
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    betas = sorted(cfg.betas)
    # one spectrum at a time: each is computed as its row is reached
    spectra = ((b, _spectrum_for(b, cfg.n, cfg.mode_counts[-1])) for b in betas)
    table = sharpness_experiment(spectra, cfg.mode_counts, region, cfg.T)
    constants, conditions = table.constants.tolist(), table.conditions.tolist()
    rows = [
        (b, k, cfg.T, cfg.epsilon, constants[i][j], conditions[i][j])
        for i, b in enumerate(betas)
        for j, k in enumerate(cfg.mode_counts)
    ]
    emitter.write(f"{name}.csv", csv_text(TABLE_HEADER, rows))
    summary = asdict(cfg)
    summary.update(
        betas=betas,
        constants=constants,
        conditions=conditions,
        resolved=table.resolved,
        decay_ratios=table.decay_ratios,
        verdicts=table.verdicts,
        vanishing_threshold=VANISHING_DECAY,
    )
    emitter.write(f"{name}.json", json_text(summary))
    if table.verdicts is not None:
        printed = ", ".join(f"beta={b:g}: {v}" for b, v in zip(betas, table.verdicts))
    else:
        printed = "one mode count, no verdict"
    return f"{name}: n={cfg.n} T={cfg.T:g} epsilon={cfg.epsilon:g}  {printed}"


def _check_hum_verification(report):
    """Raise NumericalError when the replay or the duality identity, or the
    error estimate of either quadrature, misses VERIFICATION_TOLERANCE, or
    the replay was cut at its step cap."""
    checked = (
        "relative_final_norm",
        "identity_residual",
        "replay_error_estimate",
        "identity_error_estimate",
    )
    problems = [
        f"{key} = {report[key]:.3e} exceeds {VERIFICATION_TOLERANCE:g}"
        for key in checked
        if not report[key] <= VERIFICATION_TOLERANCE  # nan fails too
    ]
    if report["replay_capped"]:
        problems.append(f"replay would need {report['replay_steps']:.3e} steps, past its step cap")
    if problems:
        diagnostics = {key: report[key] for key in checked + ("replay_steps", "replay_capped")}
        diagnostics["tolerance"] = VERIFICATION_TOLERANCE
        raise NumericalError("hum verification failed: " + "; ".join(problems), diagnostics)


def cmd_hum(cfg, emitter):
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    a0 = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    state = ModalState(coefficients=a0, spectrum=sp)
    result = hum_control(state, region, cfg.T)
    initial = float(np.linalg.norm(a0))
    # control_csv shapes the tree, not the result; hum.json has never echoed it
    report = asdict(cfg)
    del report["control_csv"]
    report.update(
        initial_norm=initial,
        final_state_norm=result.final_state_norm,
        relative_final_norm=result.final_state_norm / initial if initial > 0 else 0.0,
        observability=result.observability,
        gramian_condition=result.gramian_condition,
        identity_lhs=result.identity_lhs,
        identity_rhs=result.identity_rhs,
        identity_residual=result.identity_residual,
        replay_steps=result.replay_steps,
        replay_capped=result.replay_capped,
        replay_error_estimate=result.replay_error_estimate,
        identity_error_estimate=result.identity_error_estimate,
        region=[list(pair) for pair in result.region.intervals],
        steering_re=result.hum_coefficients.real.tolist(),
        steering_im=result.hum_coefficients.imag.tolist(),
    )
    _check_hum_verification(report)
    emitter.write("hum.json", json_text(report))
    if cfg.control_csv:
        idx = region.node_indices(sp.grid)
        header = ["t"] + [f"{part}_{i + 1}" for i in idx for part in ("re", "im")]
        values = result.control_samples
        table = np.empty((values.shape[0], 1 + 2 * values.shape[1]))
        table[:, 0] = result.control_dt * np.arange(values.shape[0])
        table[:, 1::2] = values.real
        table[:, 2::2] = values.imag
        emitter.write("control.csv", csv_text(header, table))
    return (
        f"hum: beta={cfg.beta:g} K={cfg.modes} T={cfg.T:g} "
        f"final/initial={report['relative_final_norm']:.3e} "
        f"condition={result.gramian_condition:.3e}"
    )


def cmd_pohozaev(cfg, emitter):
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    a = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    state = ModalState(coefficients=a, spectrum=sp)
    report = schrodinger_pohozaev_report(state, cfg.T)
    active = [k + 1 for k in range(cfg.modes) if abs(a[k]) > 0.0]
    checks = [asdict(eigen_pohozaev_check(sp, k)) for k in active[:6]]
    ratio = None
    if np.linalg.norm(a) > 0.0:
        ratio = two_sided_estimate_ratio(state, report.trace_integral)
    payload = asdict(cfg)
    payload.update(
        lhs=report.lhs,
        rhs=report.rhs,
        dirichlet_term=report.dirichlet_term,
        cross_term=report.cross_term,
        residual=report.residual,
        two_sided_ratio=ratio,
        eigen_checks=checks,
    )
    emitter.write("pohozaev.json", json_text(payload))
    return (
        f"pohozaev: beta={cfg.beta:g} n={cfg.n} datum={cfg.datum} "
        f"lhs={report.lhs:.6g} rhs={report.rhs:.6g} residual={report.residual:.3e}"
    )


# Each cell command reads the config section of its own name, writes its
# artifacts through the emitter and returns its one-line summary.
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


def cmd_sweep(config, emitter):
    cfg = config.sweep
    runner = _CELL_COMMANDS[cfg.command][0]

    def run_cell(beta):
        cell = override_section(config, cfg.command, beta=beta)
        buffer = Emitter(directory=None, stamp=emitter.stamp)
        return buffer, runner(getattr(cell, cfg.command), buffer)

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        cells = list(pool.map(run_cell, cfg.betas))
    for (buffer, _), prefix in zip(cells, _cell_prefixes(cfg.betas)):  # single writer, fixed cell order
        emitter.absorb(buffer, prefix)
    lines = [line for _, line in cells]
    lines.append(f"sweep: {cfg.command} over betas={[f'{b:g}' for b in cfg.betas]} jobs={cfg.jobs}")
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
    """Flag values parsed as the same keys in a config file."""
    overrides = {}
    for key in (*_VALUE_FLAGS, "jobs"):
        text = getattr(args, key, None)  # only sweep has --jobs
        if text is not None:
            try:
                overrides[key] = _PARSERS[key](text)
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
        if args.command == "sweep":
            # --beta narrows the sweep list and --jobs sets its workers; the
            # rest flows into the cells
            sweep = {key: overrides.pop(key, None) for key in ("beta", "jobs")}
            config = override_section(config, "sweep", **sweep)
            config = override_section(config, config.sweep.command, **overrides)
        else:
            config = override_section(config, args.command, **overrides)
        section = _check_run(config, args.command)
        if args.out is None and config.out is not None:
            out_dir = config.out
        os.makedirs(out_dir, exist_ok=True)
        emitter = Emitter(directory=out_dir, stamp=None if args.no_timestamp else utc_stamp())
        if args.command == "sweep":
            print(cmd_sweep(config, emitter))
            # the worker count leaves the tree unchanged, so the echo omits it
            echo = asdict(config.sweep)
            del echo["jobs"]
            echo["cell"] = asdict(section)
        else:
            print(_CELL_COMMANDS[args.command][0](section, emitter))
            echo = asdict(section)
        write_manifest(emitter, args.command, echo, __version__)
        print(f"wrote {len(emitter.artifacts)} files to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"fraclab: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
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
