"""Dirichlet spectrum of the discrete fractional Laplacian.

Eigenvalues are computed by a dense symmetric solve and normalized against
the discrete L2 inner product h * sum(u_i v_i).  Alongside the numerics the
module carries the closed-form asymptotic law

    lambda_k ~ (k pi / 2 - (2 - 2 beta) pi / 8)^(2 beta)

whose first differences decide the gap dichotomy: uniform spectral gap for
beta >= 1/2, vanishing gap below.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .operator import DiscreteOperator, Grid, check_order

__all__ = [
    "Spectrum",
    "GapReport",
    "SummabilityReport",
    "compute_spectrum",
    "asymptotic_eigenvalue",
    "gap_sequence",
    "trace_summability",
]

# Numerical ties below this relative separation are reported but kept in
# index order.
TIE_TOLERANCE = 1e-12

# Log-log slope of numeric gaps below which the gap sequence is classified
# as vanishing.
VANISHING_SLOPE = -0.05


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

    def theta_vectors(self):
        """Energy-normalized eigenvectors phi_k / sqrt(1 + lambda_k)."""
        return self.vectors / np.sqrt(1.0 + self.eigenvalues)


def compute_spectrum(op, modes):
    """Lowest `modes` eigenpairs of a discrete operator.

    Uses a dense symmetric eigensolver, then rescales eigenvectors to the
    discrete L2 normalization and fixes signs.  Raises NumericalError if the
    solver fails or a residual exceeds 1e-9 times the operator norm bound.
    """
    if not isinstance(op, DiscreteOperator):
        raise TypeError("compute_spectrum expects a DiscreteOperator")
    k = int(modes)
    n = op.grid.n_interior
    if not 1 <= k <= n:
        raise ValueError(f"modes must lie in [1, {n}], got {modes}")
    try:
        lam, vec = scipy.linalg.eigh(op.dense, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc

    scale = op.norm_bound
    residual = np.linalg.norm(op.dense @ vec - vec * lam, axis=0)
    worst = float(residual.max()) if len(residual) else 0.0
    if worst > 1e-9 * scale:
        raise NumericalError(
            "eigenpair residual too large",
            diagnostics={"residual": worst, "norm_bound": scale},
        )

    # Discrete L2 normalization and sign convention.
    phi = vec / np.sqrt(op.grid.h)
    first = phi[0, :].copy()
    for j in range(k):
        lead = first[j]
        if lead == 0.0:
            nz = np.flatnonzero(phi[:, j])
            lead = phi[nz[0], j] if len(nz) else 1.0
        if lead < 0.0:
            phi[:, j] = -phi[:, j]

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


@dataclass(frozen=True)
class GapReport:
    """First differences of an eigenvalue sequence with a dichotomy verdict."""

    gaps: np.ndarray
    inf_gap_estimate: float
    verdict: str  # "uniform-gap" or "vanishing-gap"
    source: str  # "numeric" or "asymptotic"
    slope: float = None
    ties: tuple = ()


def gap_sequence(source, modes):
    """Consecutive eigenvalue gaps from a Spectrum or from the asymptotic law.

    Passing a fractional order uses the asymptotic main term, for which the
    verdict is exactly the beta < 1/2 dichotomy.  Passing a Spectrum takes
    numeric gaps and classifies by the least-squares slope of log(gap) against
    log(k): slopes below -0.05 mean vanishing gap.
    """
    k = int(modes)
    if k < 2:
        raise ValueError("need at least two modes to form a gap")
    if isinstance(source, Spectrum):
        if k > source.modes:
            raise ValueError(f"spectrum holds {source.modes} modes, requested {k}")
        lam = np.asarray(source.eigenvalues[:k])
        gaps = np.diff(lam)
        if np.any(gaps <= 0):
            slope = float("-inf")
        else:
            idx = np.arange(1, k, dtype=float)
            slope = float(np.polyfit(np.log(idx), np.log(gaps), 1)[0])
        verdict = "vanishing-gap" if slope < VANISHING_SLOPE else "uniform-gap"
        return GapReport(
            gaps=gaps,
            inf_gap_estimate=float(gaps.min()),
            verdict=verdict,
            source="numeric",
            slope=slope,
            ties=source.ties,
        )
    b = check_order(source)
    lam = asymptotic_eigenvalue(b, np.arange(1, k + 1))
    gaps = np.diff(lam)
    verdict = "vanishing-gap" if b < 0.5 else "uniform-gap"
    return GapReport(
        gaps=gaps,
        inf_gap_estimate=float(gaps.min()),
        verdict=verdict,
        source="asymptotic",
    )


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of lambda_k^(-d) with a convergence verdict."""

    partial_sums: np.ndarray
    tail_estimate: float
    converges: bool
    decay_product: float  # 2 * beta * d


def trace_summability(source, d, terms=1000):
    """Study sum_k lambda_k^(-d) for a spectrum or the asymptotic law.

    The series converges exactly when 2 * beta * d > 1; the tail estimate
    integrates the asymptotic main term beyond the last computed index and is
    infinite in the divergent case.
    """
    dd = float(d)
    if dd <= 0:
        raise ValueError(f"exponent d must be positive, got {d}")
    if isinstance(source, Spectrum):
        b = source.beta
        lam = np.asarray(source.eigenvalues)
    else:
        b = check_order(source)
        lam = asymptotic_eigenvalue(b, np.arange(1, int(terms) + 1))
    partial = np.cumsum(lam ** (-dd))
    product = 2.0 * b * dd
    converges = product > 1.0
    if converges:
        # integral of (a k - c)^(-2 b d) from the last index on
        a = np.pi / 2.0
        c = (2.0 - 2.0 * b) * np.pi / 8.0
        k_last = len(lam) + 0.5
        tail = (a * k_last - c) ** (1.0 - product) / (a * (product - 1.0))
    else:
        tail = float("inf")
    return SummabilityReport(
        partial_sums=partial,
        tail_estimate=float(tail),
        converges=converges,
        decay_product=product,
    )
