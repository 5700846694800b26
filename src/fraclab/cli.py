"""Command-line front end: subcommands, artifact emission, exit codes.

Subcommands: spectrum, gaps, evolve, observability, sharpness, hum,
pohozaev, sweep.  A run is a list of cells, each a file prefix, a cell
command and its config section, checked before the output directory is
made and run in order: a plain run is one cell with no prefix, and sweep
only builds one `beta<b>_` cell per order.  Every run writes its artifacts
plus a manifest with SHA-256 digests into the output directory; --verify
re-hashes a previous run's files and reports drift.  Exit codes: 0 success, 1 drift under
--verify, 2 config error, 3 numerical failure, 4 I/O error.
"""

import argparse
import os
import sys
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import __version__
from .config import RunConfig, _parsed, load_config, override_section
from .control import VANISHING_DECAY, hum_control, sharpness_experiment
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
from .output import _BLOCK, Emitter, csv_blocks, csv_text, json_text, utc_stamp, verify_manifest, write_manifest
from .regions import ObservationRegion
from .spectra import asymptotic_eigenvalue, compute_spectra, compute_spectrum
from .svgplot import Series, line_plot

SPECTRUM_HEADER = ("k", "lambda_numeric", "lambda_asymptotic", "gap_numeric", "gap_asymptotic")
TABLE_HEADER = ("beta", "K", "T", "epsilon", "obs_constant", "condition")


def _spectrum_for(beta, n, modes):
    return compute_spectrum(assemble_operator(Grid(n), beta), modes)


def _cells(config, command, overrides):
    """The run resolved into (config, cells): `config` with the flags'
    `overrides` applied, and one (file prefix, command, section) cell for
    each sweep order, or the one cell ("", command, section) of any other
    command.  The cell section is refused with a ConfigError, before any
    directory is made or eigensolve run, when its values break a rule of
    its command."""
    name, betas, prefixes = command, [None], [""]
    if command == "sweep":
        # --beta narrows the sweep list and --jobs is checked but unused;
        # the rest flows into the cells
        sweep = {key: overrides.pop(key, None) for key in ("beta", "jobs")}
        config = override_section(config, "sweep", **sweep)
        name, betas = config.sweep.command, config.sweep.betas
        prefixes = [f"beta{b:g}_" for b in betas]
    config = override_section(config, name, **overrides)
    cfg = getattr(config, name)
    if hasattr(cfg, "modes"):
        span, largest = f"modes = {cfg.modes}", cfg.modes
    else:  # the table commands; the parser keeps the counts ascending
        span, largest = f"mode_counts entry {cfg.mode_counts[-1]}", cfg.mode_counts[-1]
    if largest > cfg.n:
        raise ConfigError(f"{span} exceeds the number of interior nodes n = {cfg.n}")
    if len(set(prefixes)) < len(prefixes):
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
    return config, [
        (prefix, name, getattr(override_section(config, name, beta=b), name))
        for prefix, b in zip(prefixes, betas)
    ]


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


def _spectrum_table(beta, lam, count):
    """(count, 5) table of k, lambda, asymptotic, gap, asymptotic gap for
    k = 1..count; a numeric gap past the last computed eigenvalue is nan."""
    k = np.arange(1, count + 2)
    asym = asymptotic_eigenvalue(beta, k)
    gaps = np.full(count, np.nan)
    known = np.diff(lam[: count + 1])
    gaps[: known.size] = known
    return np.column_stack([k[:-1], lam[:count], asym[:-1], gaps, np.diff(asym)])


def cmd_spectrum(cfg, emitter):
    lam = _spectrum_for(cfg.beta, cfg.n, min(cfg.modes + 1, cfg.n)).eigenvalues
    table = _spectrum_table(cfg.beta, lam, cfg.modes)
    emitter.write("spectrum.csv", csv_text(SPECTRUM_HEADER, table))
    k = tuple(table[:, 0])
    emitter.write(
        "spectrum.svg",
        line_plot(
            [
                Series("numeric", k, tuple(table[:, 1]), markers=True),
                Series("asymptotic", k, tuple(table[:, 2])),
            ],
            title=f"eigenvalues, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_k",
            timestamp=emitter.stamp,
        ),
    )
    return f"spectrum: beta={cfg.beta:g} n={cfg.n} modes={cfg.modes} lambda_1={table[0, 1]:.12g}"


def cmd_gaps(cfg, emitter):
    lam = _spectrum_for(cfg.beta, cfg.n, cfg.modes).eigenvalues
    table = _spectrum_table(cfg.beta, lam, cfg.modes - 1)
    emitter.write("gaps.csv", csv_text(SPECTRUM_HEADER, table))
    k = tuple(table[:, 0])
    emitter.write(
        "gaps.svg",
        line_plot(
            [
                Series("gap numeric", k, tuple(table[:, 3]), markers=True),
                Series("gap asymptotic", k, tuple(table[:, 4])),
            ],
            title=f"eigenvalue gaps, beta={cfg.beta:g}, n={cfg.n}",
            xlabel="k",
            ylabel="lambda_(k+1) - lambda_k",
            timestamp=emitter.stamp,
        ),
    )
    return f"gaps: beta={cfg.beta:g} n={cfg.n} rows={len(table)}"


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
    ops = (assemble_operator(Grid(cfg.n), b) for b in betas)
    spectra = compute_spectra(ops, cfg.mode_counts[-1])
    table = sharpness_experiment(spectra, cfg.mode_counts, region, cfg.T)
    constants, conditions = table.constants.tolist(), table.conditions.tolist()
    rows = [
        (b, k, cfg.T, cfg.epsilon, constants[i][j], conditions[i][j])
        for i, b in enumerate(betas)
        for j, k in enumerate(cfg.mode_counts)
    ]
    emitter.write(f"{name}.csv", csv_text(TABLE_HEADER, rows))
    summary = asdict(cfg)
    summary.update(asdict(table), betas=betas, vanishing_threshold=VANISHING_DECAY)
    emitter.write(f"{name}.json", json_text(summary))
    if table.verdicts is not None:
        printed = ", ".join(f"beta={b:g}: {v}" for b, v in zip(betas, table.verdicts))
    else:
        printed = "one mode count, no verdict"
    return f"{name}: n={cfg.n} T={cfg.T:g} epsilon={cfg.epsilon:g}  {printed}"


def cmd_hum(cfg, emitter):
    sp = _spectrum_for(cfg.beta, cfg.n, cfg.modes)
    region = ObservationRegion.boundary_layers(cfg.epsilon)
    a0 = _make_datum(cfg.datum, cfg.modes, cfg.seed)
    state = ModalState(coefficients=a0, spectrum=sp)
    result = hum_control(state, region, cfg.T)
    # control_csv shapes the tree, not the result; hum.json has never echoed it
    report = asdict(cfg)
    del report["control_csv"]
    report.update(
        {key: value for key, value in vars(result).items() if np.isscalar(value)},
        region=[list(pair) for pair in result.region.intervals],
        steering_re=result.hum_coefficients.real.tolist(),
        steering_im=result.hum_coefficients.imag.tolist(),
    )
    emitter.write("hum.json", json_text(report))
    summary = (
        f"hum: beta={cfg.beta:g} K={cfg.modes} T={cfg.T:g} "
        f"final/initial={result.relative_final_norm:.3e} "
        f"condition={result.gramian_condition:.3e}"
    )
    if cfg.control_csv:
        idx = region.node_indices(sp.grid)
        header = ["t"] + [f"{part}_{i + 1}" for i in idx for part in ("re", "im")]
        rows = _control_rows(result.control_times, result.control_samples)
        emitter.write_blocks("control.csv", csv_blocks(header, rows))
    return summary


def _control_rows(times, samples):
    """The control table in chunks of whole rows, each at most one CSV
    kernel block: t, then the real and imaginary part of each node's
    sample.  Only one chunk is built at a time."""
    ncols = 1 + 2 * samples.shape[1]
    step = max(1, _BLOCK // ncols)
    for start in range(0, len(times), step):
        values = samples[start : start + step]
        chunk = np.empty((values.shape[0], ncols))
        chunk[:, 0] = times[start : start + step]
        chunk[:, 1::2] = values.real
        chunk[:, 2::2] = values.imag
        yield chunk


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
    payload.update(asdict(report), two_sided_ratio=ratio, eigen_checks=checks)
    del payload["trace_integral"]  # only the numerator of two_sided_ratio
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


# Flags taking a value, named after their config keys.  Argparse keeps the
# text; main runs it through the config file's parser.
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
        p.add_argument("--out", metavar="DIR", help="output directory (default: the config's out key, else fraclab-out)")
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
            p.add_argument("--jobs", help="accepted for old configs; cells run in order")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("--out must name a directory")
        config = load_config(args.config) if args.config is not None else RunConfig()
        # resolved before --verify, which checks the directory a run writes
        out_dir = args.out or config.out or "fraclab-out"
        if args.verify:
            ok, lines = verify_manifest(out_dir)
            for line in lines:
                print(line)
            print("verify: ok" if ok else "verify: drift detected")
            return 0 if ok else 1

        # each flag given, parsed as the same key in a config file (only sweep has --jobs)
        flags = {key: getattr(args, key, None) for key in (*_VALUE_FLAGS, "jobs")}
        overrides = {key: _parsed(key, text, None) for key, text in flags.items() if text is not None}
        config, cells = _cells(config, args.command, overrides)
        os.makedirs(out_dir, exist_ok=True)
        emitter = Emitter(directory=out_dir, stamp=None if args.no_timestamp else utc_stamp())
        lines = [
            _CELL_COMMANDS[name][0](section, replace(emitter, prefix=prefix))
            for prefix, name, section in cells
        ]
        echo = asdict(getattr(config, cells[0][1]))
        if args.command == "sweep":
            sweep = config.sweep
            lines.append(f"sweep: {sweep.command} over betas={[f'{b:g}' for b in sweep.betas]}")
            # jobs selects nothing, so the echo omits it
            echo = dict(asdict(sweep), cell=echo)
            del echo["jobs"]
        print("\n".join(lines))
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
                "diagnostics": exc.diagnostics,
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
