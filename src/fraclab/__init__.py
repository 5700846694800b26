"""Numerical laboratory for the restricted fractional Laplacian on (-1, 1).

Core pieces: fractional centered-difference discretization, Dirichlet
spectrum with the eigenvalue gap dichotomy, spectral propagation of the
fractional Schrodinger and wave equations, observability Gramians with HUM
control synthesis, and boundary-trace identities of Pohozaev type.
"""

from .errors import (
    ConfigError,
    FraclabError,
    NumericalError,
    UncontrollableError,
)
from .operator import (
    DiscreteOperator,
    Grid,
    apply,
    assemble_operator,
    centered_difference_weights,
)
from .spectra import (
    Spectrum,
    asymptotic_eigenvalue,
    compute_spectrum,
)
from .regions import ObservationRegion
from .dynamics import (
    ModalState,
    WaveModalState,
    modal_invariants,
    schrodinger_evolve,
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
    boundary_trace,
    eigen_pohozaev_check,
    schrodinger_pohozaev_report,
    two_sided_estimate_ratio,
)

__version__ = "0.1.0"
