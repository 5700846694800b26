"""Discretization of the restricted fractional Laplacian on (-1, 1).

The operator (-Delta)^beta with zero exterior condition is discretized on a
uniform grid by fractional centered differences.  The stencil weights are the
Fourier coefficients of the generating symbol |2 sin(theta/2)|^(2 beta), so the
resulting matrix is symmetric positive definite Toeplitz and reduces to the
classical three point Laplacian at beta = 1.  It is applied matrix-free by a
circulant embedding whose symbol is real, so products run on real FFTs.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "DiscreteOperator",
    "centered_difference_weights",
    "assemble_operator",
    "apply",
]


def check_order(beta):
    """Validate a fractional order, returning it as a float.

    Orders in (0, 1) are fractional; beta = 1 is admitted as the classical
    limit so that every routine can be cross-checked against the ordinary
    Laplacian.
    """
    b = float(beta)
    if not 0.0 < b <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {beta}")
    return b


def centered_difference_weights(beta, count):
    """First `count` fractional centered difference weights g_0, g_1, ...

    g_0 = Gamma(2 beta + 1) / Gamma(beta + 1)^2 and

        g_{j+1} = g_j * (j - beta) / (j + beta + 1),

    which makes g_0 positive and every later weight negative for beta < 1.
    The two sided sequence g_{|j|} has the generating function
    |2 sin(theta/2)|^(2 beta).
    """
    b = check_order(beta)
    m = int(count)
    if m < 1:
        raise ValueError(f"weight count must be positive, got {count}")
    g = np.empty(m)
    g[0] = math.gamma(2.0 * b + 1.0) / math.gamma(b + 1.0) ** 2
    if m > 1:
        j = np.arange(m - 1, dtype=float)
        g[1:] = g[0] * np.cumprod((j - b) / (j + b + 1.0))
    return g


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on (-1, 1) with zero exterior condition.

    With n interior nodes the spacing is h = 2 / (n + 1) and the nodes are
    x_i = -1 + i * h for i = 1..n; the endpoints carry the (implicit) zero
    boundary values and are not stored.
    """

    n_interior: int

    def __post_init__(self):
        if int(self.n_interior) < 1:
            raise ValueError(f"grid needs at least one interior node, got {self.n_interior}")
        object.__setattr__(self, "n_interior", int(self.n_interior))

    @property
    def h(self):
        return 2.0 / (self.n_interior + 1)

    @cached_property
    def nodes(self):
        return -1.0 + self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric positive definite Toeplitz matrix h^(-2 beta) * g_{|i-j|}.

    Only the first row is stored; `apply` multiplies without forming the
    n x n matrix.
    """

    grid: Grid
    beta: float
    first_row: np.ndarray

    @cached_property
    def _embedded_symbol(self):
        # Circulant embedding of the Toeplitz row for FFT based products.  Any
        # length >= 2n - 1 embeds it; a power of two keeps the FFTs fast.  The
        # embedded row is real and even, so its transform is real: keep the
        # nonnegative frequencies that rfft/irfft use.
        row = self.first_row
        length = 2 << (len(row) - 1).bit_length()
        c = np.concatenate([row, np.zeros(length - 2 * len(row) + 1), row[:0:-1]])
        return np.fft.rfft(c).real

    @property
    def norm_bound(self):
        """Upper bound on the spectral norm (symbol maximum 2^(2 beta))."""
        return self.grid.h ** (-2.0 * self.beta) * 2.0 ** (2.0 * self.beta)


def assemble_operator(grid, beta):
    """Assemble the discrete operator for `beta` on `grid`."""
    b = check_order(beta)
    n = grid.n_interior
    weights = centered_difference_weights(b, n)
    first_row = grid.h ** (-2.0 * b) * weights
    return DiscreteOperator(grid=grid, beta=b, first_row=first_row)


def apply(op, u):
    """Product of the discrete operator with nodal values.

    `u` is one nodal vector of shape (n,) or a block of them, one per
    column, of shape (n, k).  Multiplies through a circulant embedding of
    the Toeplitz row, zero-padded to the power-of-two length
    2 << (n - 1).bit_length() >= 2n - 1, in O(n log n) per column, by real
    FFTs: a complex block is transformed as the real block of its 2k
    interleaved (re, im) columns.
    The dense symmetric Toeplitz matrix of `op.first_row` is the reference
    it agrees with.
    """
    u = np.asarray(u)
    n = op.grid.n_interior
    if u.ndim not in (1, 2) or u.shape[0] != n:
        raise ValueError(f"expected nodal values of shape ({n},) or ({n}, k), got {u.shape}")
    columns = u if u.ndim == 2 else u[:, None]
    block = np.ascontiguousarray(columns, dtype=np.result_type(u, float))
    symbol = op._embedded_symbol
    length = 2 * (len(symbol) - 1)
    transformed = symbol[:, None] * np.fft.rfft(block.view(float), n=length, axis=0)
    product = np.fft.irfft(transformed, n=length, axis=0)[:n]
    return product.view(block.dtype).reshape(u.shape)
