"""Observability Gramians, observability constants, and HUM control synthesis.

The Schrodinger Gramian over a mode span is assembled in closed form: the
spatial factor is the region mass matrix of eigenvectors, the temporal factor
the exact average of e^(i (lambda_j - lambda_k) t) over [0, T].  Its minimum
eigenvalue is the best observability constant on that span, and its inverse
drives the control synthesis: the control is the restriction to the region of
a free trajectory whose datum solves the Gramian system.  Wave dynamics get
the analogous 2K x 2K Gramian over stacked (position, velocity) data.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import ModalState, SourceSignal, _forced_increment, _simpson_weights
from .errors import IllConditionedError, NumericalError, UncontrollableError
from .regions import ObservationRegion
from .spectra import Spectrum

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

# Time samples per block of the HUM replay and duality quadrature.
CHUNK = 8192


@dataclass(frozen=True)
class Gramian:
    """Hermitian observability Gramian over a truncated mode span."""

    entries: np.ndarray
    horizon: float
    region: ObservationRegion
    kind: str  # "schrodinger" or "wave"
    beta: float
    modes: int


def region_mass_matrix(spectrum, region, modes=None):
    """Spatial observation matrix R_jk = h * sum_{i in region} phi_j(x_i) phi_k(x_i).

    R is symmetric with eigenvalues in [0, 1]: it is the h-weighted Gram
    matrix of eigenvectors restricted to the region, and equals the identity
    when the region covers every node.
    """
    k = spectrum.modes if modes is None else int(modes)
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
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    delta = lam[None, :] - lam[:, None]
    x = delta * T
    # e^(ix) - 1 = 2i sin(x/2) e^(ix/2) turns the cancellation-prone ratio
    # into T e^(ix/2) sinc(x / 2 pi), accurate uniformly in the gap size
    return T * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def schrodinger_gramian(spectrum, region, horizon, modes=None):
    """Closed-form Schrodinger observability Gramian G = R * mu (entrywise).

    For any modal datum a in the phi basis, a^H G a equals the observed
    energy int_0^T h * sum_{i in region} |u(x_i,t)|^2 dt of the truncated
    free evolution.
    """
    k = spectrum.modes if modes is None else int(modes)
    R = region_mass_matrix(spectrum, region, k)
    mu = phase_average_matrix(spectrum.eigenvalues[:k], horizon)
    return Gramian(
        entries=R * mu,
        horizon=float(horizon),
        region=region,
        kind="schrodinger",
        beta=spectrum.beta,
        modes=k,
    )


def _sin_average(omega, T):
    # int_0^T sin(omega t) dt = (1 - cos(omega T)) / omega; writing the
    # numerator as 2 sin^2(omega T / 2) avoids cancellation, and the
    # T^2/2 * omega * sinc^2 form extends it smoothly through omega = 0
    x = omega * T
    return 0.5 * T * x * np.sinc(x / (2.0 * np.pi)) ** 2


def _cos_average(omega, T):
    # int_0^T cos(omega t) dt, stable near omega = 0
    x = omega * T
    return T * np.sinc(x / np.pi)


def wave_gramian(spectrum, region, horizon, modes=None):
    """Wave observability Gramian over stacked data z = (lambda_k a_k ; b_k).

    z^H G z equals int_0^T h * sum_{i in region} |u_t(x_i,t)|^2 dt for the
    wave solution with position coefficients a and velocity coefficients b,
    while z^H z is the conserved energy.  Assembled from closed-form
    trigonometric time integrals.
    """
    k = spectrum.modes if modes is None else int(modes)
    R = region_mass_matrix(spectrum, region, k)
    lam = spectrum.eigenvalues[:k]
    T = float(horizon)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    diff = lam[:, None] - lam[None, :]
    summ = lam[:, None] + lam[None, :]
    # int sin(l_j t) sin(l_k t), int cos cos, int sin(l_j t) cos(l_k t)
    ss = 0.5 * (_cos_average(diff, T) - _cos_average(summ, T))
    cc = 0.5 * (_cos_average(diff, T) + _cos_average(summ, T))
    sc = 0.5 * (_sin_average(summ, T) + _sin_average(diff, T))
    top = np.concatenate([R * ss, -(R * sc)], axis=1)
    bottom = np.concatenate([-(R * sc).T, R * cc], axis=1)
    return Gramian(
        entries=np.concatenate([top, bottom], axis=0),
        horizon=T,
        region=region,
        kind="wave",
        beta=spectrum.beta,
        modes=k,
    )


def observability_constant(gramian):
    """Minimum eigenvalue of the Gramian: the best constant on the mode span."""
    try:
        eig = scipy.linalg.eigvalsh(gramian.entries)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"Gramian eigensolve failed: {exc}") from exc
    return float(eig[0])


def gramian_condition(gramian):
    """Spectral condition number max|eig| / min|eig| (inf when singular)."""
    eig = np.abs(scipy.linalg.eigvalsh(gramian.entries))
    lo, hi = float(eig.min()), float(eig.max())
    if lo == 0.0:
        return float("inf")
    return hi / lo


def _constants_table(spectra, counts, region, horizon):
    # Observability constants and Gramian conditions, one row per order and
    # one column per mode count, both ascending.
    betas = sorted(spectra)
    constants = np.empty((len(betas), len(counts)))
    conditions = np.empty_like(constants)
    for i, b in enumerate(betas):
        spectrum = spectra[b]
        if counts[-1] > spectrum.modes:
            raise ValueError(
                f"spectrum for beta={b} holds {spectrum.modes} modes, need {counts[-1]}"
            )
        for j, k in enumerate(counts):
            g = schrodinger_gramian(spectrum, region, horizon, k)
            constants[i, j] = observability_constant(g)
            conditions[i, j] = gramian_condition(g)
    return constants, conditions


@dataclass(frozen=True)
class SharpnessTable:
    """Observability constants over a (beta, K) sweep with per-beta verdicts."""

    betas: tuple
    mode_counts: tuple
    constants: np.ndarray  # shape (len(betas), len(mode_counts))
    conditions: np.ndarray
    decay_ratios: np.ndarray  # const at K_max over const at K_min, per beta
    verdicts: tuple  # "vanishing" or "uniform" per beta
    horizon: float


def sharpness_experiment(spectra, mode_counts, region, horizon):
    """Observability constants across mode counts for several orders.

    `spectra` maps each fractional order to a Spectrum holding at least
    max(mode_counts) modes.  A row is classified "vanishing" when the
    constant falls by more than a factor 100 from the smallest to the
    largest span (the two regimes sit orders of magnitude apart: below the
    dichotomy point the constants collapse by many decades over K = 5..40,
    above it they settle at an order-one fraction of their small-K value).
    """
    counts = tuple(sorted(int(k) for k in mode_counts))
    if len(counts) < 2:
        raise ValueError("need at least two mode counts")
    betas = tuple(sorted(spectra))
    constants, conditions = _constants_table(spectra, counts, region, horizon)
    decay = constants[:, -1] / constants[:, 0]
    verdicts = tuple("vanishing" if r < VANISHING_DECAY else "uniform" for r in decay)
    return SharpnessTable(
        betas=betas,
        mode_counts=counts,
        constants=constants,
        conditions=conditions,
        decay_ratios=decay,
        verdicts=verdicts,
        horizon=float(horizon),
    )


@dataclass(frozen=True)
class ControlResult:
    """Synthesized HUM control with its verification record."""

    hum_coefficients: np.ndarray
    control: SourceSignal
    final_state_norm: float
    gramian_condition: float
    observability: float
    identity_lhs: float
    identity_rhs: float
    identity_residual: float
    region: ObservationRegion
    horizon: float
    modes: int


def _control_chunks(lam, coeffs, phi_region, times):
    # Free trajectory from datum `coeffs` sampled on region nodes, in blocks
    # sharing endpoint samples so per-block quadrature weights compose exactly.
    for start in range(0, len(times) - 1, CHUNK):
        t = times[start : start + CHUNK + 1]
        y = (np.exp(1j * np.outer(t, lam)) * coeffs) @ phi_region.T
        yield t, y


def hum_control(state, region, horizon):
    """Synthesize the control steering a Schrodinger datum to zero at time T.

    The control is h = y restricted to the region, where y is the free
    evolution of the datum y0 solving the Hermitian Gramian system; the
    steering condition int_0^T f_k(t) e^(-i lambda_k t) dt = -i a_k(0) turns
    into G y0 = -i a(0) with G the closed-form Gramian.  The synthesis
    is verified by replaying the control through the forced-evolution
    integrator on a time grid fine enough to resolve VERIFICATION_TOLERANCE
    and by checking the duality identity (the Gramian quadratic form of y0
    equals the observed energy of y).

    Raises UncontrollableError when the observability constant is
    numerically zero, IllConditionedError when the Gramian condition number
    exceeds 1e12.
    """
    if not isinstance(state, ModalState):
        raise TypeError("hum_control expects a ModalState datum")
    work = state.to_basis("phi")
    a0 = work.coefficients
    spectrum = work.spectrum
    K = work.modes
    T = float(horizon)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")

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
    control = SourceSignal(values=y_report, dt=T / 1000.0)

    # Verification integration: Simpson error ~ T (w dt)^4 / 180 * F with w
    # the largest eigenvalue spread and F the forcing scale.  Steps are a
    # multiple of the chunk so every block has an even interval count.
    omega = max(float(lam[-1] - lam[0]), 1.0)
    fscale = max(float(np.linalg.norm(coeffs)) * math.sqrt(K), 1.0)
    target = max(VERIFICATION_TOLERANCE * u0_norm, 1e-300)
    if u0_norm == 0.0:  # zero datum: zero control, nothing to resolve
        n_steps = CHUNK
    else:
        dt = (180.0 * target / (T * omega**4 * fscale)) ** 0.25
        n_steps = int(min(max(math.ceil(T / dt), 2048), 2_000_000))
        n_steps = CHUNK * math.ceil(n_steps / CHUNK)
    times = np.linspace(0.0, T, n_steps + 1)
    blocks = _control_chunks(lam, coeffs, phi_region, times)
    integral = _forced_increment(lam, spectrum.h, phi_region, blocks)
    a_final = np.exp(1j * lam * T) * (a0 - 1j * integral)
    final_norm = float(np.linalg.norm(a_final))

    # Duality identity: Gramian quadratic form of y0 against the observed
    # energy of the trajectory y, quadrature by composite Simpson.
    lhs = float(np.real(np.vdot(coeffs, steering @ coeffs)))
    n_q = int(min(max(2 * math.ceil(10.0 * T * max(lam[-1], 1.0)), 20_000), 400_000))
    if n_q % 2:
        n_q += 1
    t_q = np.linspace(0.0, T, n_q + 1)
    w = _simpson_weights(n_q)
    rhs = 0.0
    quadrature = _control_chunks(lam, coeffs, phi_region, t_q)
    for start, (t, y) in zip(range(0, n_q, CHUNK), quadrature):
        dens = spectrum.h * np.sum(np.abs(y) ** 2, axis=1)
        stop = start + len(t)
        if stop <= n_q:  # last sample reappears as the next chunk's first
            rhs += float(np.sum(w[start : stop - 1] * dens[:-1]))
        else:
            rhs += float(np.sum(w[start:stop] * dens))
    rhs *= (T / n_q) / 3.0
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    return ControlResult(
        hum_coefficients=coeffs,
        control=control,
        final_state_norm=final_norm,
        gramian_condition=cond,
        observability=obs,
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_residual=residual,
        region=region.snapped(spectrum.grid),
        horizon=T,
        modes=K,
    )
