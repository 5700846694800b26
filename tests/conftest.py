"""Shared fixtures: session-scoped eigenpair cache keyed by (beta, grid size),
and the dense Toeplitz matrix that serves as the oracle for matrix-free code."""

import os
from pathlib import Path

import pytest
import scipy.linalg

import fraclab
from fraclab import Grid, assemble_operator, compute_spectrum


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
