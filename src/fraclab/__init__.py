"""Numerical laboratory for the restricted fractional Laplacian on (-1, 1).

Core pieces: fractional centered-difference discretization, Dirichlet
spectrum with the eigenvalue gap dichotomy, spectral propagation of the
fractional Schrodinger and wave equations, observability Gramians with HUM
control synthesis, and boundary-trace identities of Pohozaev type.
"""

from .errors import (
    ConfigError,
    FraclabError,
    IllConditionedError,
    NumericalError,
    UncontrollableError,
)
from .operator import (
    DiscreteOperator,
    Grid,
    apply,
    assemble_operator,
    centered_difference_weights,
    symbol,
)
from .spectra import (
    GapReport,
    Spectrum,
    SummabilityReport,
    asymptotic_eigenvalue,
    compute_spectrum,
    gap_sequence,
    trace_summability,
)
from .regions import ObservationRegion
from .dynamics import (
    ModalState,
    SourceSignal,
    WaveModalState,
    modal_invariants,
    project_initial_datum,
    reconstruct,
    schrodinger_evolve,
    schrodinger_forced_evolve,
    wave_energy,
    wave_evolve,
)
from .control import (
    ControlResult,
    Gramian,
    SharpnessTable,
    gramian_condition,
    hum_control,
    observability_constant,
    phase_average_matrix,
    region_mass_matrix,
    schrodinger_gramian,
    sharpness_experiment,
    wave_gramian,
)
from .identity import (
    BoundaryTrace,
    PohozaevCheck,
    PohozaevReport,
    TwoSidedEstimate,
    boundary_trace,
    eigen_pohozaev_check,
    schrodinger_pohozaev_report,
    two_sided_estimate_ratio,
)

__version__ = "0.1.0"
