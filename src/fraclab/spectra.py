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
blocks are alive together.  Each worker checks its pairs' residuals and
normalizes its vectors once its block is freed.  Over a sequence of
operators, such as a table's orders, the next operator's solves run while
the current one is merged and used, never more than one operator ahead.
Alongside the numerics the module carries the closed-form asymptotic law

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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import dsyevr as _lowest_pairs
from .errors import NumericalError
from .operator import DiscreteOperator, Grid, apply, check_order

__all__ = [
    "Spectrum",
    "compute_spectrum",
    "compute_spectra",
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

# Columns per FFT residual product in a worker: at n = 2047 a product's
# arrays take under 1 MB beside the other worker's 8 MB block.
_RESIDUAL_COLUMNS = 8


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


def _parity_pairs(op, sign, take):
    """Lowest `take` eigenpairs of one parity block of `op`, checked and scaled.

    Each vector is [x; sign * J x] / sqrt(2), with x_m as the middle entry
    for odd n.  The block lives only for the duration of the solve, so a
    worker holds one block at a time and two workers hold two.  Once the
    block is freed, each pair's residual |A v - lambda v| is computed on the
    unit vectors by the FFT product `apply`, _RESIDUAL_COLUMNS columns at a
    time, so its transforms stay small beside another worker's block.  The
    vectors are then scaled in place to unit discrete L2 norm, each column's
    first nonzero entry made positive (an all-zero column is left as it is).
    Returns (eigenvalues, vectors, residuals).  Raises ValueError if the
    block holds an inf or NaN, which the solver does not check.
    """
    n = op.grid.n_interior
    m = n // 2
    block = _parity_block(op.first_row, sign)
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
    residuals = np.empty(take)
    for j in range(0, take, _RESIDUAL_COLUMNS):
        cols = slice(j, j + _RESIDUAL_COLUMNS)
        residuals[cols] = np.linalg.norm(apply(op, v[:, cols]) - v[:, cols] * lam_b[cols], axis=0)
    v /= np.sqrt(op.grid.h)
    lead = v[np.argmax(v != 0.0, axis=0), np.arange(take)]
    v *= np.where(lead < 0.0, -1.0, 1.0)
    return lam_b, v, residuals


def _submit(pool, op, takes):
    """Futures of the parity solves {sign: take}, even block first."""
    return {sign: pool.submit(_parity_pairs, op, sign, take) for sign, take in takes.items()}


def _first_round(pool, op, modes):
    """Check one operator's request and submit its first-round solves.

    Returns the arguments of `_merge` after the pool.
    """
    if not isinstance(op, DiscreteOperator):
        raise TypeError("compute_spectrum expects a DiscreteOperator")
    k = int(modes)
    n = op.grid.n_interior
    if not 1 <= k <= n:
        raise ValueError(f"modes must lie in [1, {n}], got {modes}")
    full = {sign: min(k, _block_size(n, sign)) for sign in (1.0, -1.0)}
    first = {sign: min(take, (k + 1) // 2 + 1) for sign, take in full.items() if take}
    return op, k, full, _submit(pool, op, first)


def _merge(pool, op, k, full, solving):
    """The Spectrum of one operator from its submitted first-round solves."""
    pairs = {}
    while solving:
        pairs.update((sign, future.result()) for sign, future in solving.items())
        values = np.concatenate([lam_b for lam_b, _, _ in pairs.values()])
        order = np.argsort(values, kind="stable")[:k]
        # Kept pairs of a block are a prefix of it, so its last one
        # decides; a block solved for its full take is never solved again.
        pending, stop = {}, 0
        for sign, (lam_b, _, _) in pairs.items():
            stop += len(lam_b)
            if len(lam_b) < full[sign] and stop - 1 in order:
                pending[sign] = full[sign]
        solving = _submit(pool, op, pending)
    lam = values[order]

    scale = op.norm_bound
    worst = float(np.concatenate([res for _, _, res in pairs.values()])[order].max())
    if not worst <= 1e-9 * scale:  # a NaN residual fails too
        raise NumericalError(
            "eigenpair residual too large",
            diagnostics={"residual": worst, "norm_bound": scale},
        )

    # The kept columns of a block are its first ones, in the merged order.
    phi = np.empty((op.grid.n_interior, k))
    start = 0
    for lam_b, v, _ in pairs.values():
        mine = (order >= start) & (order < start + len(lam_b))
        phi[:, mine] = v[:, : np.count_nonzero(mine)]
        start += len(lam_b)

    gaps = np.diff(lam)
    ties = tuple(int(i + 1) for i in np.flatnonzero(gaps <= TIE_TOLERANCE * max(abs(lam[-1]), 1.0)))
    if ties:
        warnings.warn(f"numerically tied eigenvalues at indices {ties}; kept in index order")
    return Spectrum(beta=op.beta, grid=op.grid, eigenvalues=lam, vectors=phi, ties=ties)


def compute_spectra(ops, modes):
    """Yield the lowest `modes` eigenpairs of each operator of `ops`, in order.

    Each Spectrum is the one `compute_spectrum` returns.  With two workers
    the next operator's first-round solves are submitted before the
    current operator is merged, so they run while the current one merges
    and while the caller works on its Spectrum; solves never run more than
    one operator ahead, and no more than `_WORKERS` blocks are alive at
    once.  With one worker (a multithreaded BLAS) each operator is solved
    only when its Spectrum is asked for.  A caller that drops each Spectrum
    before asking for the next holds one at a time.
    """
    ahead = 1 if _WORKERS > 1 else 0
    pool = ThreadPoolExecutor(_WORKERS)
    try:
        started = []
        for op in ops:
            started.append(_first_round(pool, op, modes))
            if len(started) > ahead:
                yield _merge(pool, *started.pop(0))
        while started:
            yield _merge(pool, *started.pop(0))
    finally:
        # solves of an operator that will not be merged are not started
        pool.shutdown(cancel_futures=True)


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
    does not depend on the worker count.  Each worker checks its pairs'
    residuals, computed on the full vectors by the FFT product `apply`,
    and rescales its vectors to the discrete L2 normalization with signs
    fixed.  Raises NumericalError if the solver fails or a kept pair's
    residual exceeds 1e-9 times the operator norm bound or is NaN.  This is
    the one-operator case of `compute_spectra`.
    """
    return next(compute_spectra((op,), modes))


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
