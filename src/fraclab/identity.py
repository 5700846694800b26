"""Boundary traces and Pohozaev-type identity checks.

Eigenfunctions and solutions vanish outside (-1, 1) and approach the boundary
like d(x)^beta with d the distance to the endpoint, so the classical normal
derivative is replaced by the coefficient of that power.  The module extracts
those coefficients by an extrapolating two-power fit on a thin layer of nodes,
then uses them in the algebraic identity satisfied by eigenfunctions and in
the space-time identity satisfied by free Schrodinger trajectories, whose
trace integral is a closed-form quadratic form like the interior Gramian.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import _relative, phase_average_matrix

__all__ = [
    "PohozaevCheck",
    "PohozaevReport",
    "eigen_pohozaev_check",
    "schrodinger_pohozaev_report",
    "two_sided_estimate_ratio",
]

# Nodes skipped at each endpoint before the fitting layer begins; the two
# nearest nodes carry the largest discretization error of the scheme.
SKIP = 2


def _layer_width(n):
    # nodes per fitting layer; both layers and their skipped nodes must fit
    m = max(8, n // 64)
    need = 2 * (m + SKIP)
    if n < need:
        raise ValueError(
            f"n = {n} is too coarse for boundary-layer fitting (needs at least {need} nodes)"
        )
    return m


def _second_exponent(beta):
    # The subleading boundary power: d^(2 beta) below the half-order point,
    # d^(beta + 1) at and above it.
    return 2.0 * beta if beta < 0.5 else beta + 1.0


def _layer_fit(vectors, grid, beta):
    """Boundary coefficients and relative layer misfits of an (n, k) block,
    the one entry point of the trace fit (a single vector is an (n, 1) column).

    Each column is fitted on both layers against the two leading boundary
    powers by one least-squares product per layer; the coefficient of
    dist^beta and the relative misfit of the fit come from that product.
    Returns (coefficients, residuals), each (2, k) with rows (left, right).
    """
    n = grid.n_interior
    m = _layer_width(n)
    dist = grid.h * np.arange(SKIP + 1, SKIP + m + 1, dtype=float)
    design = np.column_stack([dist ** float(beta), dist ** _second_exponent(beta)])
    pinv = np.linalg.pinv(design)
    coefficients, residuals = [], []
    # both layers share one design: the right layer is read reversed, nodes
    # nearest x = +1 first, so it sits at the same distances as the left
    for side in (vectors[SKIP : SKIP + m], vectors[n - SKIP - m : n - SKIP][::-1]):
        coeff = pinv @ side
        scale = np.linalg.norm(side, axis=0)
        misfit = np.linalg.norm(side - design @ coeff, axis=0)
        coefficients.append(coeff[0])
        residuals.append(np.divide(misfit, scale, out=np.zeros_like(misfit), where=scale > 0.0))
    return np.array(coefficients), np.array(residuals)


@dataclass(frozen=True)
class PohozaevCheck:
    """Eigenfunction identity: sum of squared boundary coefficients vs target."""

    mode: int
    lhs: float
    rhs: float
    residual: float
    fit_residuals: tuple  # (left, right) relative misfits of the layer fits


def eigen_pohozaev_check(spectrum, mode):
    """Check d_left^2 + d_right^2 = 2 beta lambda_k / Gamma(1 + beta)^2.

    `mode` counts from 1.  The eigenvector is normalized so that
    h * sum phi^2 = 1, matching the unit-L2 normalization of the identity.
    """
    k = int(mode)
    if not 1 <= k <= spectrum.modes:
        raise ValueError(f"mode must lie in [1, {spectrum.modes}], got {mode}")
    # an (n, 1) view of the vector: the strides the fit's products were
    # checked on (a k - 1 : k slice has others)
    column = spectrum.vectors[:, k - 1][:, None]
    coefficients, residuals = _layer_fit(column, spectrum.grid, spectrum.beta)
    left, right = coefficients[:, 0].tolist()
    lhs = abs(left) ** 2 + abs(right) ** 2
    gamma = math.gamma(1.0 + spectrum.beta)
    rhs = 2.0 * spectrum.beta * float(spectrum.eigenvalues[k - 1]) / gamma**2
    residual = float(_relative(abs(lhs - rhs), abs(rhs)))
    fits = tuple(residuals[:, 0].tolist())
    return PohozaevCheck(mode=k, lhs=lhs, rhs=rhs, residual=residual, fit_residuals=fits)


def _first_derivative(values, h):
    # centered differences inside, second-order one-sided at the ends
    u = np.asarray(values)
    d = np.empty_like(u)
    d[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    d[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    d[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return d


def _virial_term(u, grid):
    # h * sum conj(u) x du/dx, the generator of dilations tested against u
    du = _first_derivative(u, grid.h)
    return grid.h * np.sum(np.conj(u) * grid.nodes * du)


def _trace_integral(state, T):
    """int_0^T (|d_left|^2 + |d_right|^2) dt along the free trajectory of `state`.

    Each trace is a trigonometric polynomial d(t) = sum_k l_k a_k e^(i lambda_k t)
    with l_k the layer-fit trace of mode k, so the integral is exact: the
    interior Gramian's quadratic form a^H (R * mu) a with the region mass
    matrix R replaced by L^T L, L the 2 x K matrix of left and right traces.
    """
    spectrum = state.spectrum
    L, _ = _layer_fit(spectrum.vectors[:, : state.modes], spectrum.grid, spectrum.beta)
    mu = phase_average_matrix(state.eigenvalues, T)
    a = state.coefficients
    return float(np.real(np.conj(a) @ ((L.T @ L) * mu) @ a))


@dataclass(frozen=True)
class PohozaevReport:
    """Space-time identity balance for a free Schrodinger trajectory."""

    lhs: float
    rhs: float
    dirichlet_term: float
    cross_term: float
    residual: float
    trace_integral: float  # int_0^T (|d_left|^2 + |d_right|^2) dt


def schrodinger_pohozaev_report(state, duration):
    """Balance Gamma(1+beta)^2 int (|d_left|^2 + |d_right|^2) dt against the bulk.

    The bulk side is 2 beta T sum lambda |a|^2 (conserved under the free
    flow) plus the boundary-in-time term Im h sum conj(u) x du/dx evaluated
    at T minus its value at 0.  The trace integral is evaluated in closed form
    from the layer-fit traces of the modes; the report keeps it for
    two_sided_estimate_ratio.
    """
    spectrum = state.spectrum
    T = float(duration)
    integral = _trace_integral(state, T)
    lhs = math.gamma(1.0 + spectrum.beta) ** 2 * integral

    a = state.coefficients
    dirichlet = 2.0 * spectrum.beta * T * float(np.sum(state.eigenvalues * np.abs(a) ** 2))
    phi = spectrum.vectors[:, : state.modes]
    u0 = phi @ a
    uT = phi @ (np.exp(1j * state.eigenvalues * T) * a)
    cross = float(np.imag(_virial_term(uT, spectrum.grid) - _virial_term(u0, spectrum.grid)))
    rhs = dirichlet + cross
    residual = float(_relative(abs(lhs - rhs), max(abs(lhs), abs(rhs))))
    return PohozaevReport(
        lhs=lhs,
        rhs=rhs,
        dirichlet_term=dirichlet,
        cross_term=cross,
        residual=residual,
        trace_integral=integral,
    )


def two_sided_estimate_ratio(state, trace_integral):
    """int_0^T (|d_left|^2 + |d_right|^2) dt over sum (1 + lambda) |a|^2.

    `trace_integral` is the numerator, as PohozaevReport.trace_integral
    carries it.  The denominator is the squared graph norm of the datum; for
    a single mode k the ratio equals 2 beta T lambda_k / (Gamma(1+beta)^2
    (1+lambda_k)) up to trace-extraction error, and two-sided bounds
    c T <= ratio <= C T express observability of the datum from the boundary
    alone.
    """
    energy = float(np.sum((1.0 + state.eigenvalues) * np.abs(state.coefficients) ** 2))
    if energy <= 0.0:
        raise ValueError("datum energy is zero; the ratio is undefined")
    return float(trace_integral) / energy
