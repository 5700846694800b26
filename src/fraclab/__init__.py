"""Numerical laboratory for the restricted fractional Laplacian on (-1, 1).

Core pieces: fractional centered-difference discretization, Dirichlet
spectrum with the eigenvalue gap dichotomy, spectral propagation of the
fractional Schrodinger and wave equations, observability Gramians with HUM
control synthesis, and boundary-trace identities of Pohozaev type.
"""

# Each module's __all__ declares its public names; the package re-exports them.
from .errors import *
from .operator import *
from .spectra import *
from .regions import *
from .dynamics import *
from .control import *
from .identity import *

__version__ = "0.1.0"
