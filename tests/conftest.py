"""Shared fixtures: session-scoped eigenpair cache keyed by (beta, grid size),
the dense Toeplitz matrix that serves as the oracle for matrix-free code, and
the Gramians and Hermitian matrices on which the LAPACK calls are checked
against scipy.linalg, and a pin of SciPy's OpenBLAS to one thread for
those checks."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import _flapack

import fraclab
from fraclab import Grid, ObservationRegion, assemble_operator, compute_spectrum, schrodinger_gramian

# (beta, n, K, T) Gramian cells on both sides of beta = 1/2, the grids and
# mode counts of the benchmark's tables and T around the control time.
CELLS = [
    (0.3, 255, 20, 3.0),
    (0.5, 511, 40, 6.0),
    (0.6, 1024, 20, 1.0),
    (0.75, 1023, 60, 2.0),
    (0.9, 2047, 80, 1.0),
]


def pytest_configure(config):
    # CLI tests start `python -m fraclab.cli` subprocesses, some from other
    # working directories: point them at the package these tests import.
    src = str(Path(fraclab.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def get_spectrum():
    """Memoized spectrum loader; repeated requests reuse the larger solve."""
    cache = {}

    def fetch(beta, n, modes=12):
        key = (beta, n)
        have = cache.get(key)
        if have is None or have.modes < modes:
            solve = min(max(modes, 12), n)
            have = compute_spectrum(assemble_operator(Grid(n), beta), solve)
            cache[key] = have
        return have

    return fetch


@pytest.fixture(scope="session")
def dense_matrix():
    """Oracle: the n x n matrix of a DiscreteOperator, built from its first row."""
    return lambda op: scipy.linalg.toeplitz(op.first_row)


@pytest.fixture(scope="module", params=CELLS, ids=lambda c: "beta{}-n{}-K{}-T{}".format(*c))
def gramian(request):
    """The Schrodinger Gramian of one of CELLS, over boundary layers of width 0.2."""
    beta, n, k, horizon = request.param
    spectrum = compute_spectrum(assemble_operator(Grid(n), beta), k)
    return schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.2), horizon, k)


@pytest.fixture(scope="session")
def hermitian():
    """Builder of a Hermitian positive definite matrix with the given spectral condition."""

    def build(n, condition, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * np.geomspace(1.0, 1.0 / condition, n)) @ q.conj().T
        return 0.5 * (a + a.conj().T)

    return build


@pytest.fixture
def one_blas_thread():
    """scipy.linalg's OpenBLAS on one thread for the test, as numpy's runs.

    The program's LAPACK calls run in numpy's OpenBLAS (ILP64), which
    importing fraclab sets to one thread; the scipy.linalg references run
    in the one scipy bundles (LP64).  The two builds split threaded work
    differently, so a bit-for-bit comparison between them holds only when
    neither runs more than one thread.
    """
    library = ctypes.CDLL(_flapack.__file__)
    threads = library.scipy_openblas_get_num_threads()
    library.scipy_openblas_set_num_threads(1)
    yield
    library.scipy_openblas_set_num_threads(threads)
