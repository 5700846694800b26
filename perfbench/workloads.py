"""Workload definitions: the fraclab command lines each benchmark pass runs.

A workload is an ordered list of cells.  A cell is one ``fraclab`` command
line run in-process through ``fraclab.cli.main``; the benchmark adds
``--out`` (a scratch directory per cell), ``--no-timestamp`` and, when the
cell carries INI text, ``--config``.  Verify cells re-hash an earlier cell's
directory.  The program only ever sees these generated command lines and
config files; the benchmark seed only picks the random data seeds of the
``hum`` cells.

Why these three workloads (each stresses a different layer):

* ``refine``: a beta = 1/2 grid-refinement ladder.  Dense ``eigh`` in
  ``spectra`` on operators from ``operator`` does nearly all the work, so a
  faster or matrix-free eigensolve shows here, and ``lambda1_err`` on the
  finest grid guards its accuracy.  The ladder stops at n = 2047: at
  n = 4095 the 134 MB matrix outgrows the last-level cache, and run medians
  of that eigensolve spread by 14-21% between runs on a shared 2-vCPU host,
  against 4% here.
* ``dichotomy``: both halves of the beta = 1/2 dichotomy at moderate n with
  many modes: a six-order observability table, HUM synthesis and replay on
  either side of 1/2, and a gap sweep.  ``control`` and the ``dynamics``
  replay are a large share; output is negligible.
* ``artifacts``: every subcommand at its documented defaults, three more
  ``hum`` runs, and ``--verify`` after each.  CSV row building, formatting,
  hashing and SVG writing are about half the run; the eigensolve is small.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("refine", "dichotomy", "artifacts")

# Scale "full" is the benchmark; "tiny" runs the same cell structure on
# small grids for the benchmark's own tests.
SCALES = ("full", "tiny")

REFINE_NS = {"full": (511, 1023, 2047), "tiny": (63, 127, 255)}


@dataclass(frozen=True)
class Cell:
    """One fraclab invocation.

    `argv` is the command line without --out/--config/--no-timestamp.
    `kind` names the check applied to the cell's outputs.  `config` is INI
    text written next to the cell, or None.  `target` is the id of the cell
    whose directory a verify cell re-hashes.
    """

    id: str
    kind: str
    argv: tuple
    config: str = None
    target: str = None

    @property
    def subcommand(self):
        return "verify" if self.kind == "verify" else self.argv[0]


def hum_seeds(workload, seed, count):
    """Data seeds for a workload's hum cells, fixed by the benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _verified(cells):
    out = []
    for cell in cells:
        out.append(cell)
        out.append(
            Cell(id=f"verify_{cell.id}", kind="verify", argv=(cell.argv[0], "--verify"), target=cell.id)
        )
    return out


def _refine(scale):
    spectrum_ns = REFINE_NS[scale]
    pohozaev_ns = spectrum_ns[:2]
    cells = [
        Cell(id=f"spectrum_n{n}", kind="spectrum", argv=("spectrum", "--beta", "0.5", "--n", str(n)))
        for n in spectrum_ns
    ]
    cells += [
        Cell(id=f"pohozaev_n{n}", kind="pohozaev", argv=("pohozaev", "--beta", "0.5", "--n", str(n)))
        for n in pohozaev_ns
    ]
    return cells


def _dichotomy(scale, seed):
    if scale == "full":
        n, betas, counts = 2047, "0.25, 0.4, 0.5, 0.6, 0.75, 0.9", "10, 20, 40, 80"
        hum_n, hum_modes, gap_n, gap_modes = 1024, 40, 1023, 40
    else:
        n, betas, counts = 255, "0.25, 0.75", "5, 10, 20, 40"
        hum_n, hum_modes, gap_n, gap_modes = 255, 10, 127, 10
    cells = [
        Cell(
            id="sharpness",
            kind="sharpness",
            argv=("sharpness",),
            config=f"[sharpness]\nbetas = {betas}\nmode_counts = {counts}\nn = {n}\nT = 4\nepsilon = 0.2\n",
        )
    ]
    # T = 3 at beta = 1/2 is above the minimal control time 8/pi.
    for (beta, horizon), data_seed in zip(((0.5, 3), (0.75, 1), (0.9, 1)), hum_seeds("dichotomy", seed, 3)):
        cells.append(
            Cell(
                id=f"hum_b{beta:g}_T{horizon:g}",
                kind="hum",
                argv=("hum",),
                config=(
                    f"[hum]\nbeta = {beta:g}\nn = {hum_n}\nmodes = {hum_modes}\nT = {horizon:g}\n"
                    f"seed = {data_seed}\ncontrol_csv = false\n"
                ),
            )
        )
    # The spectral half of the dichotomy, and the lambda_1(1/2) anchor.
    cells.append(
        Cell(
            id="sweep_gaps",
            kind="sweep_gaps",
            argv=("sweep",),
            config=(
                f"[sweep]\ncommand = gaps\nbetas = 0.25, 0.5, 0.75\n"
                f"[gaps]\nn = {gap_n}\nmodes = {gap_modes}\n"
            ),
        )
    )
    return cells


def _artifacts(scale, seed):
    grid = () if scale == "full" else ("--n", "127")
    seeds = hum_seeds("artifacts", seed, 4)
    cells = [
        Cell(id=name, kind=name, argv=(name,) + grid)
        for name in ("spectrum", "gaps", "evolve", "observability", "sharpness")
    ]
    cells.append(Cell(id="hum_0", kind="hum_csv", argv=("hum", "--seed", str(seeds[0])) + grid))
    cells.append(Cell(id="pohozaev", kind="pohozaev", argv=("pohozaev",) + grid))
    cells.append(Cell(id="sweep_spectrum", kind="sweep_spectrum", argv=("sweep", "--jobs", "2") + grid))
    cells += [
        Cell(id=f"hum_{i}", kind="hum_csv", argv=("hum", "--seed", str(s)) + grid)
        for i, s in enumerate(seeds[1:], start=1)
    ]
    return _verified(cells)


def cells(workload, seed, scale="full"):
    """The ordered cells of one pass of `workload`."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "refine":
        return _refine(scale)
    if workload == "dichotomy":
        return _dichotomy(scale, seed)
    if workload == "artifacts":
        return _artifacts(scale, seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def lambda1_source(workload, scale="full"):
    """Id of the cell whose beta = 1/2 first eigenvalue is the lambda_1 anchor.

    On refine it is the finest grid of the ladder.
    """
    if workload == "refine":
        return f"spectrum_n{REFINE_NS[scale][-1]}"
    return {"dichotomy": "sweep_gaps", "artifacts": "spectrum"}[workload]


# Spans that must record calls in a traced pass of each workload; zero calls
# means a wrapper no longer sits where the program looks the name up.
REQUIRED_SPANS = {
    "refine": (
        "cli.spectrum",
        "cli.pohozaev",
        "operator.assemble_operator",
        "spectra.compute_spectrum",
        "identity.schrodinger_pohozaev_report",
        "identity.eigen_pohozaev_check",
        "identity.two_sided_estimate_ratio",
    ),
    "dichotomy": (
        "cli.sharpness",
        "cli.hum",
        "cli.sweep",
        "config.load_config",
        "spectra.compute_spectrum",
        "regions.node_indices",
        "control.schrodinger_gramian",
        "control.observability_constant",
        "control.gramian_condition",
        "control.sharpness_experiment",
        "control.hum_control",
        "dynamics.forced_increment",
    ),
    "artifacts": (
        "cli.spectrum",
        "cli.gaps",
        "cli.evolve",
        "cli.observability",
        "cli.sharpness",
        "cli.hum",
        "cli.pohozaev",
        "cli.sweep",
        "cli.verify",
        "dynamics.schrodinger_evolve",
        "output.csv_text",
        "output.json_text",
        "output.emitter_write",
        "output.write_manifest",
        "output.verify_manifest",
        "svgplot.line_plot",
    ),
}
