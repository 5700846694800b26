"""Discretization of the restricted fractional Laplacian on (-1, 1).

The operator (-Delta)^beta with zero exterior condition is discretized on a
uniform grid by fractional centered differences.  The stencil weights are the
Fourier coefficients of the generating symbol |2 sin(theta/2)|^(2 beta), so the
resulting matrix is symmetric positive definite Toeplitz and reduces to the
classical three point Laplacian at beta = 1.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "Grid",
    "DiscreteOperator",
    "check_order",
    "centered_difference_weights",
    "symbol",
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


def symbol(beta, theta):
    """Generating symbol |2 sin(theta/2)|^(2 beta) of the weight sequence."""
    b = check_order(beta)
    return np.abs(2.0 * np.sin(np.asarray(theta, dtype=float) / 2.0)) ** (2.0 * b)


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
    """Symmetric positive definite Toeplitz matrix h^(-2 beta) * g_{|i-j|}."""

    grid: Grid
    beta: float
    first_row: np.ndarray

    @cached_property
    def dense(self):
        return toeplitz(self.first_row)

    @cached_property
    def _embedded_symbol(self):
        # Circulant embedding of the Toeplitz row for FFT based products.
        row = self.first_row
        c = np.concatenate([row, [0.0], row[:0:-1]])
        return np.fft.fft(c)

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
    """Matrix-vector product of the discrete operator with nodal values.

    Multiplies through a circulant embedding of the Toeplitz row in
    O(n log n); `op.dense @ u` is the dense reference it agrees with.
    """
    u = np.asarray(u)
    n = op.grid.n_interior
    if u.shape != (n,):
        raise ValueError(f"expected nodal vector of shape ({n},), got {u.shape}")
    padded = np.zeros(2 * n, dtype=complex)
    padded[:n] = u
    out = np.fft.ifft(op._embedded_symbol * np.fft.fft(padded))[:n]
    if np.isrealobj(u):
        return out.real
    return out
