"""Dirichlet spectrum of the discrete fractional Laplacian.

The operator is symmetric Toeplitz, hence centrosymmetric, so every
eigenvector is even or odd under the reflection x -> -x (Cantoni & Butler,
Linear Algebra Appl. 13, 1976).  Eigenpairs therefore come from two
half-size symmetric solves, one per parity, and are normalized against the
discrete L2 inner product h * sum(u_i v_i).  The lowest k eigenvalues of
the two blocks interlace in practice, so each block is first solved for
only ceil(k/2) + 1 pairs; a block whose solved pairs all survive the merge
may hide a lower one and is solved again in full.  Both blocks share one
Fortran buffer, the even block in its lower triangle and the odd block in
the upper triangle of a window one panel to the right, as the rectangular
full packed format keeps two triangles in one array (Gustavson, Wasniewski,
Dongarra & Langou, ACM TOMS 37, 2010); the solver reads and writes only
its triangle.  Each parity has its own lane, a one-thread executor, so a
triangle holds one block at a time and each parity's solves run in the
order they were submitted.  The two lanes solve at once, since the solver
releases the GIL and the BLAS runs one thread per call.  Each lane checks
its pairs' residuals and normalizes its vectors after its solve.  Over a
sequence of operators, such as a table's orders, the next operator's
solves run while the current one is merged and used, never more than one
operator ahead, in the same buffer.
Alongside the numerics the module carries the closed-form asymptotic law

    lambda_k ~ (k pi / 2 - (2 - 2 beta) pi / 8)^(2 beta)

whose first differences decide the gap dichotomy: uniform spectral gap for
beta >= 1/2, vanishing gap below.
"""

import math
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

# Columns per FFT residual product in a lane: at n = 2047 a product's
# arrays take under 1 MB beside the 9.0 MB buffer of both blocks.
_RESIDUAL_COLUMNS = 8

# Columns per panel of a block fill.  The odd block starts one panel to the
# right of the even one, so in every column of the buffer its triangle ends
# a panel above the even triangle's start: each fill may write whole
# diagonal tiles without reaching the other triangle.
_PANEL = 64


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


def _buffer(n):
    """The Fortran buffer that holds both parity blocks for n nodes.

    It has s_odd + _PANEL columns of at least s_even rows.  The row count,
    the blocks' leading dimension, is an odd number of 64-byte lines: with
    a power-of-two column of 4 KiB (n = 1024), the two lanes' solves,
    which share every column, each took about 0.7 ms longer.
    """
    rows = 8 * (-(-_block_size(n, 1) // 8) | 1)
    return np.empty((rows, _block_size(n, -1) + _PANEL), order="F")


def _parity_block(row, sign, buf):
    """Write one parity block of a symmetric Toeplitz matrix into `buf`.

    With m = n // 2, the top m rows of the matrix split into T11 = T[:m, :m]
    and T12 = T[:m, n - m:].  An eigenvector [x; s J x] / sqrt(2), with J the
    m x m exchange matrix, has s = 1 for even and s = -1 for odd parity, and
    x is an eigenvector of T11 + s T12 J with the same eigenvalue.  For odd n
    the even block gains a last row and column for the middle node: the
    middle column of T above the diagonal scaled by sqrt(2), and the
    diagonal entry.  The even block (sign = 1) goes to the lower triangle of
    buf[:size, :size], the odd block (sign = -1) to the upper triangle of
    buf[:size, _PANEL:_PANEL + size], each written by _PANEL-column panels in
    memory order, whole diagonal tiles included.  Returns the block's view
    of `buf` and its triangle, 'L' or 'U'.  Entries outside the triangle and
    its diagonal tiles are left as they are.
    """
    n = len(row)
    m = n // 2
    size = _block_size(n, sign)
    lower = sign > 0
    block = buf[:size, :size] if lower else buf[:size, _PANEL : _PANEL + size]
    if m:
        # T11[i, j] = row[|i - j|] and (T12 J)[i, j] = row[n - 1 - i - j],
        # both strided views of the row.
        t11 = sliding_window_view(np.concatenate([row[m - 1 : 0 : -1], row[:m]]), m)[:, ::-1]
        hank = sliding_window_view(row[::-1][: 2 * m - 1], m)
        combine = np.add if lower else np.subtract
        # Both terms are symmetric, so the panel's columns are rows of the
        # terms, and the transpose writes them in memory order.
        for start in range(0, m, _PANEL):
            cols = slice(start, min(start + _PANEL, m))
            rows = slice(start, m) if lower else slice(0, cols.stop)
            combine(t11[cols, rows], hank[cols, rows], out=block.T[cols, rows])
    if size > m:
        block[m, :m] = math.sqrt(2.0) * row[m:0:-1]
        block[m, m] = row[0]
    return block, "L" if lower else "U"


def _parity_pairs(op, sign, take, buf):
    """Lowest `take` eigenpairs of one parity block of `op`, checked and scaled.

    The block is written into its triangle of the shared buffer `buf` and
    solved there.  Each vector is [x; sign * J x] / sqrt(2), with x_m as
    the middle entry for odd n.  Each pair's residual |A v - lambda v| is
    computed on the unit vectors by the FFT product `apply`,
    _RESIDUAL_COLUMNS columns at a time, so its transforms stay small
    beside the buffer.  The vectors are then scaled in place to unit
    discrete L2 norm, each column's first nonzero entry made positive (an
    all-zero column is left as it is).  Returns (eigenvalues, vectors,
    residuals).
    """
    n = op.grid.n_interior
    m = n // 2
    block, uplo = _parity_block(op.first_row, sign, buf)
    lam_b, x = _lowest_pairs(block, take, uplo)
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


def _submit(lanes, op, takes, buf):
    """Futures of the parity solves {sign: take} in `buf`, even block first."""
    return {sign: lanes[sign].submit(_parity_pairs, op, sign, take, buf) for sign, take in takes.items()}


def _first_round(lanes, buffers, op, modes):
    """Check one operator's request and submit its first-round solves.

    The solves use the buffer of `buffers` for the operator's grid size; a
    new size replaces it there, while the solves already submitted keep
    theirs.  Returns the arguments of `_merge` after the lanes.  Raises
    ValueError if a row entry is not finite or reaches 2^1022 in size: the
    solver checks nothing, and below that every block entry, a sum of two
    row entries or one times sqrt(2), is finite.
    """
    if not isinstance(op, DiscreteOperator):
        raise TypeError("compute_spectrum expects a DiscreteOperator")
    k = int(modes)
    n = op.grid.n_interior
    if not 1 <= k <= n:
        raise ValueError(f"modes must lie in [1, {n}], got {modes}")
    if not np.all(np.abs(op.first_row) < 2.0**1022):  # false for a NaN too
        raise ValueError("row entries must be finite and below 2^1022 in size")
    buf = buffers.get(n)
    if buf is None:
        buffers.clear()
        buf = buffers[n] = _buffer(n)
    full = {sign: min(k, _block_size(n, sign)) for sign in (1.0, -1.0)}
    first = {sign: min(take, (k + 1) // 2 + 1) for sign, take in full.items() if take}
    return op, k, full, buf, _submit(lanes, op, first, buf)


def _merge(lanes, op, k, full, buf, solving):
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
        solving = _submit(lanes, op, pending, buf)
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

    Each Spectrum is the one `compute_spectrum` returns.  The stream keeps
    one buffer per grid size, and every block of an operator of that size
    is solved in its triangle of it, so a table of one size holds one
    buffer, about s_even x (s_odd + _PANEL) doubles, and never a separate
    block.
    The next operator's first-round solves are submitted before the
    current operator is merged, so they run while the current one merges
    and while the caller works on its Spectrum; solves never run more than
    one operator ahead, and each lane runs its parity's solves, re-solves
    included, in the order they were submitted.  A caller that drops each
    Spectrum before asking for the next holds one at a time.
    """
    lanes, buffers = {sign: ThreadPoolExecutor(1) for sign in (1.0, -1.0)}, {}
    try:
        started = []
        for op in ops:
            started.append(_first_round(lanes, buffers, op, modes))
            if len(started) > 1:
                yield _merge(lanes, *started.pop(0))
        while started:
            yield _merge(lanes, *started.pop(0))
    finally:
        # solves of an operator that will not be merged are not started
        for lane in lanes.values():
            lane.shutdown(cancel_futures=True)


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
    Both blocks are solved in one buffer of about s_even x (s_odd +
    _PANEL) doubles, about half of what two separate blocks take: the even
    block in its lower triangle, the odd one in an upper triangle.  The
    blocks of a round are solved on their two lanes at once and merged even
    block first.  Each lane checks its pairs' residuals, computed on the
    full vectors by the FFT product `apply`, and rescales its vectors to
    the discrete L2 normalization with signs fixed.  Raises ValueError if a
    row entry is not finite or reaches 2^1022 in size, and NumericalError
    if the solver fails or a kept pair's residual exceeds 1e-9 times the
    operator norm bound or is NaN.  This is the one-operator case of
    `compute_spectra`.
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
