"""Observability Gramians, observability constants, and HUM control synthesis.

The Schrodinger Gramian over a mode span is assembled in closed form: the
spatial factor is the region mass matrix of eigenvectors, the temporal factor
the exact average of e^(i (lambda_j - lambda_k) t) over [0, T].  Its minimum
eigenvalue is the best observability constant on that span, and its inverse
drives the control synthesis: the control is the restriction to the region of
a free trajectory whose datum solves the Gramian system, verified by
replaying the nodal control samples through the forced-evolution kernel of
`dynamics` under two composite Gauss-Legendre rules, whose difference is an
a-posteriori error estimate; each block of samples comes from one real
matrix product of the region eigenvectors with the modal trajectory.  Wave
dynamics get the analogous 2K x 2K Gramian over stacked (position, velocity)
data.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .dynamics import ModalState, _forced_increment
from .errors import IllConditionedError, NumericalError, UncontrollableError
from .regions import ObservationRegion

__all__ = [
    "Gramian",
    "ControlResult",
    "SharpnessTable",
    "phase_average_matrix",
    "region_mass_matrix",
    "schrodinger_gramian",
    "wave_gramian",
    "observability_constant",
    "gramian_condition",
    "sharpness_experiment",
    "hum_control",
]

# Condition number above which control synthesis is refused.
CONDITION_LIMIT = 1e12

# Total decay const(K_max)/const(K_min) below which a sharpness row is
# classified as vanishing; calibrated against direct Gramian computations on
# both sides of the dichotomy (see sharpness_experiment docstring).
VANISHING_DECAY = 1e-2

# Relative accuracy, against the datum norm, that the HUM replay resolves.
VERIFICATION_TOLERANCE = 1e-9

# Gauss-Legendre nodes per panel of the HUM replay's composite rules.
PANEL_NODES = 32

# Bytes of the (region nodes x samples) complex trajectory that one block of
# the HUM replay may hold; a block takes as many whole panels as fit, and at
# least one, so the replay's memory does not grow with its length.  Budgets
# of 0.5 to 4 MiB and a single block per rule replayed the benchmark's hum
# configurations equally fast; the smallest is kept.
BLOCK_BYTES = 1 << 19

# Most samples the HUM replay's accepted rule may take; beyond it the replay
# takes none and sets ControlResult.replay_capped.
REPLAY_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class Gramian:
    """Hermitian observability Gramian over a truncated mode span."""

    entries: np.ndarray
    modes: int

    @cached_property
    def eigenvalues(self):
        """Ascending eigenvalues of the entries, from one Hermitian solve."""
        try:
            return scipy.linalg.eigvalsh(self.entries)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise NumericalError(f"Gramian eigensolve failed: {exc}") from exc


def region_mass_matrix(spectrum, region, modes):
    """Spatial observation matrix R_jk = h * sum_{i in region} phi_j(x_i) phi_k(x_i).

    R is symmetric with eigenvalues in [0, 1]: it is the h-weighted Gram
    matrix of eigenvectors restricted to the region, and equals the identity
    when the region covers every node.
    """
    k = int(modes)
    if not 1 <= k <= spectrum.modes:
        raise ValueError(f"modes must lie in [1, {spectrum.modes}], got {modes}")
    idx = region.node_indices(spectrum.grid)
    phi = spectrum.vectors[idx, :k]
    return spectrum.h * (phi.T @ phi)


def phase_average_matrix(eigenvalues, horizon):
    """Matrix of time averages mu_jk = int_0^T e^(i(lambda_k-lambda_j)t) dt.

    In closed form mu_jk = (e^(i(lambda_k-lambda_j)T) - 1)/(i(lambda_k-lambda_j))
    with diagonal entries T.  The matrix is the Gram matrix of the
    exponentials e^(i lambda t) in L2(0,T), hence Hermitian PSD, and an
    off-diagonal entry vanishes exactly when the eigenvalue difference is a
    multiple of 2 pi / T.  The index order matters for complex data: this
    orientation is the one whose quadratic form a^H (R * mu) a reproduces
    observed energies.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    T = float(horizon)
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    delta = lam[None, :] - lam[:, None]
    x = delta * T
    # e^(ix) - 1 = 2i sin(x/2) e^(ix/2) turns the cancellation-prone ratio
    # into T e^(ix/2) sinc(x / 2 pi), accurate uniformly in the gap size
    return T * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def schrodinger_gramian(spectrum, region, horizon, modes):
    """Closed-form Schrodinger observability Gramian G = R * mu (entrywise).

    For any modal datum a in the phi basis, a^H G a equals the observed
    energy int_0^T h * sum_{i in region} |u(x_i,t)|^2 dt of the truncated
    free evolution.
    """
    k = int(modes)
    R = region_mass_matrix(spectrum, region, k)
    mu = phase_average_matrix(spectrum.eigenvalues[:k], horizon)
    return Gramian(entries=R * mu, modes=k)


def wave_gramian(spectrum, region, horizon, modes):
    """Wave observability Gramian over stacked data z = (lambda_k a_k ; b_k).

    z^H G z equals int_0^T h * sum_{i in region} |u_t(x_i,t)|^2 dt for the
    wave solution with position coefficients a and velocity coefficients b,
    while z^H z is the conserved energy.  The trigonometric time integrals
    come in closed form from the phase averages of the frequencies
    -lambda_k and lambda_k.
    """
    k = int(modes)
    R = region_mass_matrix(spectrum, region, k)
    lam = spectrum.eigenvalues[:k]
    mu = phase_average_matrix(np.concatenate([-lam, lam]), horizon)
    S = mu[:k, k:]  # int e^(i (l_j + l_k) t)
    D = mu[k:, k:]  # int e^(i (l_k - l_j) t)
    # int sin(l_j t) sin(l_k t), int cos cos, int sin(l_j t) cos(l_k t)
    ss = 0.5 * (D.real - S.real)
    cc = 0.5 * (D.real + S.real)
    sc = 0.5 * (S.imag - D.imag)
    top = np.concatenate([R * ss, -(R * sc)], axis=1)
    bottom = np.concatenate([-(R * sc).T, R * cc], axis=1)
    return Gramian(entries=np.concatenate([top, bottom], axis=0), modes=k)


def observability_constant(gramian):
    """Minimum eigenvalue of the Gramian: the best constant on the mode span."""
    return float(gramian.eigenvalues[0])


def gramian_condition(gramian):
    """Spectral condition number max|eig| / min|eig| (inf when singular)."""
    eig = np.abs(gramian.eigenvalues)
    lo, hi = float(eig.min()), float(eig.max())
    if lo == 0.0:
        return float("inf")
    return hi / lo


@dataclass(frozen=True)
class SharpnessTable:
    """Observability constants over a (beta, K) sweep with per-beta verdicts.

    Rows run over the orders and columns over the mode counts, both ascending.
    A table of one mode count has no decay ratios and no verdicts (None).
    """

    constants: np.ndarray
    conditions: np.ndarray
    resolved: np.ndarray  # constant above the eigensolve's rounding floor
    decay_ratios: np.ndarray  # const at K_max over const at K_min, per beta
    verdicts: tuple  # "vanishing" or "uniform" per beta


def sharpness_experiment(spectra, mode_counts, region, horizon):
    """Observability constants across one or more mode counts for several orders.

    `spectra` yields (order, Spectrum) pairs with ascending orders, each
    spectrum holding at least max(mode_counts) modes.  A spectrum is dropped
    once its row of Gramians is done, so a generator that computes each one
    on demand keeps one alive at a time.  With two or more counts a row is
    classified "vanishing" when the constant falls by more than a factor 100
    from the smallest to the largest span (the two regimes sit orders of
    magnitude apart: below the dichotomy point the constants collapse by many
    decades over K = 5..40, above it they settle at an order-one fraction of
    their small-K value).

    A Hermitian eigensolve of a K x K Gramian resolves eigenvalues only down
    to about K * eps * lambda_max, so a constant counts as resolved when it
    is positive and the condition number stays below 1 / (K * eps); below
    that floor its digits are rounding noise.
    """
    counts = tuple(sorted(int(k) for k in mode_counts))
    if not counts:
        raise ValueError("need at least one mode count")
    betas, constants, conditions = [], [], []
    for b, spectrum in spectra:
        if betas and b <= betas[-1]:
            raise ValueError(f"orders must ascend, got {b} after {betas[-1]}")
        if counts[-1] > spectrum.modes:
            raise ValueError(
                f"spectrum for beta={b} holds {spectrum.modes} modes, need {counts[-1]}"
            )
        gramians = [schrodinger_gramian(spectrum, region, horizon, k) for k in counts]
        del spectrum  # before the next order's spectrum is computed
        betas.append(b)
        constants.append([observability_constant(g) for g in gramians])
        conditions.append([gramian_condition(g) for g in gramians])
    constants = np.reshape(constants, (-1, len(counts)))
    conditions = np.reshape(conditions, (-1, len(counts)))
    floor = 1.0 / (np.asarray(counts) * np.finfo(float).eps)
    decay = verdicts = None
    if len(counts) >= 2:
        decay = constants[:, -1] / constants[:, 0]
        verdicts = tuple("vanishing" if r < VANISHING_DECAY else "uniform" for r in decay)
    return SharpnessTable(
        constants=constants,
        conditions=conditions,
        resolved=(constants > 0.0) & (conditions < floor),
        decay_ratios=decay,
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class ControlResult:
    """Synthesized HUM control with its verification record.

    control_samples[j, i] is the control at time j * control_dt on the i-th
    region node, for j = 0..1000 and control_dt = T / 1000.  The two error
    estimates are relative: the replay's to the datum norm, the duality
    energy's to the Gramian quadratic form identity_lhs.
    """

    hum_coefficients: np.ndarray
    control_samples: np.ndarray
    control_dt: float
    final_state_norm: float
    gramian_condition: float
    observability: float
    identity_lhs: float
    identity_rhs: float
    identity_residual: float
    region: ObservationRegion
    replay_steps: int  # a float when replay_capped
    replay_capped: bool
    replay_error_estimate: float
    identity_error_estimate: float


def _trajectory(lam, coeffs, phi_region, times):
    # Free trajectory from datum `coeffs` on region nodes at `times`.  One real
    # product of the eigenvectors with the interleaved (re, im) columns of the
    # modal trajectory gives y.T as an (m, n_t) C-ordered complex array; the
    # (n_t, m) result is its transpose, which the kernel reads without a copy.
    return (
        phi_region @ (coeffs[:, None] * np.exp(1j * np.multiply.outer(lam, times))).view(float)
    ).view(complex).T


def _replay(lam, h, phi_region, coeffs, horizon, scales):
    # Every integrand is a trigonometric polynomial with frequencies in
    # [-omega, omega], omega the eigenvalue spread.  A PANEL_NODES-point
    # Gauss-Legendre panel of length H resolves it to rounding once omega * H
    # is well below 2 * PANEL_NODES, so the coarse rule takes the fewest
    # panels with omega * H <= PANEL_NODES and the accepted rule twice as
    # many; |accepted - coarse| estimates the error of the coarse sums and
    # so bounds that of the accepted ones.  Each rule sums the forcing
    # integral (first len(lam) entries) and the observed energy (last) over
    # blocks of whole panels, as many as keep a block's complex samples
    # within BLOCK_BYTES (at least one); a block's times are made with it, so
    # one block is alive at a time.  A replay whose accepted rule exceeds
    # REPLAY_STEP_CAP samples nothing, reports NaN and gives the count it
    # would need as a float, which any JSON reader holds.  Returns the
    # accepted sums, their sample count, whether the cap refused the replay,
    # and the relative error estimates.
    T = float(horizon)
    panels = max(1, math.ceil(float(lam[-1] - lam[0]) * T / PANEL_NODES))
    steps = 2 * panels * PANEL_NODES
    if steps > REPLAY_STEP_CAP:
        return np.full(len(lam) + 1, np.nan, dtype=complex), float(steps), True, np.full(2, np.nan)
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    offsets = 0.5 * (nodes + 1.0)
    panel_bytes = np.dtype(complex).itemsize * phi_region.shape[0] * PANEL_NODES
    per_block = max(1, BLOCK_BYTES // panel_bytes)
    totals = []
    for p in (panels, 2 * panels):
        width = T / p
        panel_weights = 0.5 * width * weights

        def rule(t):
            return np.tile(panel_weights, len(t) // PANEL_NODES)

        integral = energy = 0.0
        for first in range(0, p, per_block):
            t = (width * (np.arange(first, min(first + per_block, p))[:, None] + offsets)).ravel()
            y = _trajectory(lam, coeffs, phi_region, t)
            squares = np.einsum("ij,ij->j", y.T.view(float), y.T.view(float))
            energy += (h * (squares[0::2] + squares[1::2])) @ rule(t)
            integral = integral + _forced_increment(lam, h, phi_region, [(t, y)], rule=rule)
            del y
        totals.append(np.append(integral, energy))
    coarse, sums = totals
    difference = sums - coarse
    errors = np.array([np.linalg.norm(difference[:-1]), abs(difference[-1])])
    return sums, steps, False, errors / np.maximum(scales, 1e-300)


def hum_control(state, region, horizon):
    """Synthesize the control steering a Schrodinger datum to zero at time T.

    The control is h = y restricted to the region, where y is the free
    evolution of the datum y0 solving the Hermitian Gramian system; the
    steering condition int_0^T f_k(t) e^(-i lambda_k t) dt = -i a_k(0) turns
    into G y0 = -i a(0) with G the closed-form Gramian.  The synthesis
    is verified by replaying the control through the forced-evolution
    integrator and by checking the duality identity (the Gramian quadratic
    form of y0 equals the observed energy of y), both summed from the same
    control samples.  The replay runs two composite Gauss-Legendre rules,
    the second on twice the panels of the first, each sampling its nodes
    block by block and passing one block per call to the kernel.  It
    records the second's sample count and the relative differences of the
    two as a-posteriori error estimates.  When the second rule would exceed
    REPLAY_STEP_CAP samples, nothing is sampled: the result says so,
    carries NaN sums and estimates, and gives the sample count the replay
    would need as a float.

    Raises UncontrollableError when the observability constant is
    numerically zero, IllConditionedError when the Gramian condition number
    exceeds 1e12.
    """
    if not isinstance(state, ModalState):
        raise TypeError("hum_control expects a ModalState datum")
    a0 = state.coefficients
    spectrum = state.spectrum
    K = state.modes
    T = float(horizon)

    g = schrodinger_gramian(spectrum, region, T, K)
    obs = observability_constant(g)
    if obs <= 1e-12 * T:
        raise UncontrollableError(
            "observability constant is numerically zero at this truncation",
            diagnostics={"observability": obs, "horizon": T, "modes": K},
        )
    cond = gramian_condition(g)
    if cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"Gramian condition {cond:.3e} exceeds limit {CONDITION_LIMIT:.1e}",
            diagnostics={"condition": cond, "observability": obs, "modes": K},
        )

    steering = g.entries
    coeffs = scipy.linalg.solve(steering, -1j * a0, assume_a="pos")

    lam = spectrum.eigenvalues[:K]
    idx = region.node_indices(spectrum.grid)
    phi_region = spectrum.vectors[idx, :K]
    u0_norm = float(np.linalg.norm(a0))

    # Reported control samples on the conventional grid dt = T / 1000.
    t_report = np.linspace(0.0, T, 1001)
    y_report = (np.exp(1j * np.outer(t_report, lam)) * coeffs) @ phi_region.T

    # One replay gives the forcing integral and, for the duality identity,
    # the observed energy of y, against the Gramian quadratic form of y0.
    lhs = float(np.real(np.vdot(coeffs, steering @ coeffs)))
    scales = np.array([u0_norm, abs(lhs)])
    sums, n_steps, capped, errors = _replay(lam, spectrum.h, phi_region, coeffs, T, scales)
    a_final = np.exp(1j * lam * T) * (a0 - 1j * sums[:-1])
    final_norm = float(np.linalg.norm(a_final))
    rhs = float(sums[-1].real)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    return ControlResult(
        hum_coefficients=coeffs,
        control_samples=y_report,
        control_dt=T / 1000.0,
        final_state_norm=final_norm,
        gramian_condition=cond,
        observability=obs,
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_residual=residual,
        region=region.snapped(spectrum.grid),
        replay_steps=n_steps,
        replay_capped=capped,
        replay_error_estimate=float(errors[0]),
        identity_error_estimate=float(errors[1]),
    )
