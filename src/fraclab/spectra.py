"""Dirichlet spectrum of the discrete fractional Laplacian.

The operator is symmetric Toeplitz, hence centrosymmetric, so every
eigenvector is even or odd under the reflection x -> -x (Cantoni & Butler,
Linear Algebra Appl. 13, 1976).  Eigenpairs therefore come from two
half-size symmetric solves, one per parity, and are normalized against the
discrete L2 inner product h * sum(u_i v_i).  The lowest k eigenvalues of
the two blocks interlace in practice, so each block is first solved for
only ceil(k/2) + 1 pairs; a block whose solved pairs all survive the merge
may hide a lower one and is solved again in full.  The two blocks of a round
are solved at once on two threads when the BLAS runs one thread per call,
since the solver releases the GIL; each worker holds one block, so two
blocks are alive together.  Alongside the numerics the module carries the
closed-form asymptotic law

    lambda_k ~ (k pi / 2 - (2 - 2 beta) pi / 8)^(2 beta)

whose first differences decide the gap dichotomy: uniform spectral gap for
beta >= 1/2, vanishing gap below.
"""

import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import dsyevr as _lowest_pairs
from .errors import NumericalError
from .operator import DiscreteOperator, Grid, apply, check_order

__all__ = [
    "Spectrum",
    "compute_spectrum",
    "asymptotic_eigenvalue",
]

# Numerical ties below this relative separation are reported but kept in
# index order.
TIE_TOLERANCE = 1e-12

def _parity_workers():
    """Parity blocks solved at once: 2 when the BLAS runs one thread, else 1.

    OpenBLAS takes its thread count from the first of these variables that
    holds a positive integer, read like C atoi (so OMP_NUM_THREADS=1,2
    counts as 1), and uses every core when none does.  Two solves on a
    multithreaded BLAS oversubscribe the cores and run slower than one
    after the other.
    """
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        digits = re.match(r"\s*[+-]?\d+", os.environ.get(key, ""))
        count = int(digits.group()) if digits else 0
        if count > 0:
            return 2 if count == 1 else 1
    return 1


# The BLAS reads its thread count once, when it loads, and so does this.
_WORKERS = _parity_workers()


@dataclass(frozen=True)
class Spectrum:
    """Leading eigenpairs of a discrete operator.

    `vectors` holds one column per mode, normalized to unit discrete L2 norm
    (h * sum v_i^2 = 1) with nonnegative value at the first interior node.
    """

    beta: float
    grid: Grid
    eigenvalues: np.ndarray
    vectors: np.ndarray
    ties: tuple = ()

    @property
    def modes(self):
        return len(self.eigenvalues)

    @property
    def h(self):
        return self.grid.h


def _block_size(n, sign):
    """Order of the even (sign = 1) or odd (sign = -1) block for n nodes."""
    m = n // 2
    return m + 1 if sign > 0 and n % 2 else m


def _parity_block(row, sign):
    """Even (sign = 1) or odd (sign = -1) block of a symmetric Toeplitz matrix.

    With m = n // 2, the top m rows of the matrix split into T11 = T[:m, :m]
    and T12 = T[:m, n - m:].  An eigenvector [x; s J x] / sqrt(2), with J the
    m x m exchange matrix, has s = 1 for even and s = -1 for odd parity, and
    x is an eigenvector of T11 + s T12 J with the same eigenvalue.  For odd n
    the even block gains a last row and column for the middle node: the
    middle column of T above the diagonal scaled by sqrt(2), and the
    diagonal entry.  Only the returned block is allocated.
    """
    n = len(row)
    m = n // 2
    size = _block_size(n, sign)
    # Fortran order lets dsyevr factor it in place.
    block = np.empty((size, size), order="F")
    if m:
        # T11[i, j] = row[|i - j|] and (T12 J)[i, j] = row[n - 1 - i - j],
        # both strided views of the row.
        t11 = sliding_window_view(np.concatenate([row[m - 1 : 0 : -1], row[:m]]), m)[:, ::-1]
        hank = sliding_window_view(row[::-1][: 2 * m - 1], m)
        combine = np.add if sign > 0 else np.subtract
        # Both terms are symmetric, so writing the transpose (C order, in
        # memory order) gives the same block.
        combine(t11, hank, out=block.T[:m, :m])
    if size > m:
        middle = math.sqrt(2.0) * row[m:0:-1]
        block[:m, m] = middle
        block[m, :m] = middle
        block[m, m] = row[0]
    return block


def _parity_pairs(row, sign, take):
    """Lowest `take` eigenpairs of one parity block, vectors of length n.

    Each vector is [x; sign * J x] / sqrt(2), with x_m as the middle entry
    for odd n.  The block lives only for the duration of the solve, so a
    worker holds one block at a time and two workers hold two.  Raises
    ValueError if the block holds an inf or NaN, which the solver does not
    check.
    """
    n = len(row)
    m = n // 2
    block = _parity_block(row, sign)
    # min and max are NaN if an entry is, and infinite if an entry is;
    # unlike np.isfinite they allocate nothing beside the block
    if not (math.isfinite(block.min()) and math.isfinite(block.max())):
        raise ValueError("array must not contain infs or NaNs")
    lam_b, x = _lowest_pairs(block, take)
    del block
    v = np.zeros((n, take))
    v[:m] = x[:m] / math.sqrt(2.0)
    v[n - m :] = sign * v[:m][::-1]
    if len(x) > m:
        v[m] = x[m]
    return lam_b, v


def compute_spectrum(op, modes):
    """Lowest `modes` eigenpairs of a discrete operator.

    Solves the even and odd parity blocks of the Toeplitz matrix (about
    n/2 x n/2 each), maps their pairs back to length-n eigenvectors and
    keeps the lowest `modes` of the merged list; the n x n matrix is never
    formed.  Each block is first solved for min(modes, block size,
    ceil(modes/2) + 1) lowest pairs.  A truncated block whose solved pairs
    all survive the merge may hide a lower eigenvalue, so it is solved once
    more for min(modes, block size) pairs and the merge is redone; a block
    that keeps out at least one of its pairs hides nothing below them.
    The blocks of a round are solved on `_WORKERS` threads (two on a
    one-thread BLAS, else one) and merged even block first, so the result
    does not depend on the worker count.  Eigenvectors are then rescaled
    to the discrete L2 normalization with signs fixed.  Raises
    NumericalError if the solver fails or a residual, computed on the full
    vectors by the FFT product `apply`, exceeds 1e-9 times the operator
    norm bound or is NaN.
    """
    if not isinstance(op, DiscreteOperator):
        raise TypeError("compute_spectrum expects a DiscreteOperator")
    k = int(modes)
    n = op.grid.n_interior
    if not 1 <= k <= n:
        raise ValueError(f"modes must lie in [1, {n}], got {modes}")
    full = {sign: min(k, _block_size(n, sign)) for sign in (1.0, -1.0)}
    pending = {sign: min(take, (k + 1) // 2 + 1) for sign, take in full.items() if take}
    pairs = {}
    solve = partial(_parity_pairs, op.first_row)
    with ThreadPoolExecutor(_WORKERS) as pool:
        while pending:
            # map yields results in submission order, even block first
            pairs.update(zip(pending, pool.map(solve, pending, pending.values())))
            values = np.concatenate([lam_b for lam_b, _ in pairs.values()])
            order = np.argsort(values, kind="stable")[:k]
            # Kept pairs of a block are a prefix of it, so its last one
            # decides; a block solved for its full take is never solved again.
            pending, stop = {}, 0
            for sign, (lam_b, _) in pairs.items():
                stop += len(lam_b)
                if len(lam_b) < full[sign] and stop - 1 in order:
                    pending[sign] = full[sign]
    lam = values[order]
    vec = np.concatenate([v for _, v in pairs.values()], axis=1)[:, order]

    scale = op.norm_bound
    residual = np.linalg.norm(apply(op, vec) - vec * lam, axis=0)
    worst = float(residual.max())
    if not worst <= 1e-9 * scale:  # a NaN residual fails too
        raise NumericalError(
            "eigenpair residual too large",
            diagnostics={"residual": worst, "norm_bound": scale},
        )

    # Discrete L2 normalization and sign convention: each column's first
    # nonzero entry is made positive (an all-zero column is left as it is).
    phi = vec / np.sqrt(op.grid.h)
    lead = phi[np.argmax(phi != 0.0, axis=0), np.arange(k)]
    phi *= np.where(lead < 0.0, -1.0, 1.0)

    gaps = np.diff(lam)
    ties = tuple(int(i + 1) for i in np.flatnonzero(gaps <= TIE_TOLERANCE * max(abs(lam[-1]), 1.0)))
    if ties:
        warnings.warn(f"numerically tied eigenvalues at indices {ties}; kept in index order")
    return Spectrum(beta=op.beta, grid=op.grid, eigenvalues=lam, vectors=phi, ties=ties)


def asymptotic_eigenvalue(beta, k):
    """Main term (k pi/2 - (2 - 2 beta) pi/8)^(2 beta) of the eigenvalue law."""
    b = check_order(beta)
    kk = np.asarray(k, dtype=float)
    if np.any(kk < 1):
        raise ValueError("mode index k must be >= 1")
    base = kk * np.pi / 2.0 - (2.0 - 2.0 * b) * np.pi / 8.0
    out = base ** (2.0 * b)
    if np.isscalar(k):
        return float(out)
    return out
