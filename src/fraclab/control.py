"""Observability Gramians, observability constants, and HUM control synthesis.

The Schrodinger Gramian over a mode span is assembled in closed form: the
spatial factor is the region mass matrix of eigenvectors, the temporal factor
the exact average of e^(i (lambda_j - lambda_k) t) over [0, T].  Its minimum
eigenvalue is the best observability constant on that span, and its inverse
drives the control synthesis: the control is the restriction to the region of
a free trajectory whose datum solves the Gramian system, verified by
replaying the nodal control samples through the forced-evolution kernel of
`dynamics` with step doubling, under an a-posteriori error estimate; the
samples come block by block from one real matrix product of the region
eigenvectors with the table-built modal trajectory.  Wave
dynamics get the analogous 2K x 2K Gramian over stacked (position, velocity)
data.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import ModalState, SourceSignal, _forced_increment, _phases, _trapezoid_weights
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

# Time steps per block of the HUM replay; its first level is whole blocks.
CHUNK = 8192

# Most steps the HUM replay takes: step doubling stops short of it, and a
# first level beyond it runs at the cap rounded up to whole blocks.  Either
# way ControlResult.replay_capped is set.
REPLAY_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class Gramian:
    """Hermitian observability Gramian over a truncated mode span."""

    entries: np.ndarray
    modes: int


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
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
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
    # Observability constants, Gramian conditions and whether each constant
    # is resolved, one row per order and one column per mode count, both
    # ascending.  A Hermitian eigensolve of a K x K Gramian resolves
    # eigenvalues only down to about K * eps * lambda_max, so a constant
    # counts as resolved when it is positive and the condition number stays
    # below 1 / (K * eps); below that floor its digits are rounding noise.
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
    floor = 1.0 / (np.asarray(counts) * np.finfo(float).eps)
    return constants, conditions, (constants > 0.0) & (conditions < floor)


@dataclass(frozen=True)
class SharpnessTable:
    """Observability constants over a (beta, K) sweep with per-beta verdicts.

    Rows run over the orders and columns over the mode counts, both ascending.
    """

    constants: np.ndarray
    conditions: np.ndarray
    resolved: np.ndarray  # constant above the eigensolve's rounding floor
    decay_ratios: np.ndarray  # const at K_max over const at K_min, per beta
    verdicts: tuple  # "vanishing" or "uniform" per beta


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
    constants, conditions, resolved = _constants_table(spectra, counts, region, horizon)
    decay = constants[:, -1] / constants[:, 0]
    verdicts = tuple("vanishing" if r < VANISHING_DECAY else "uniform" for r in decay)
    return SharpnessTable(
        constants=constants,
        conditions=conditions,
        resolved=resolved,
        decay_ratios=decay,
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class ControlResult:
    """Synthesized HUM control with its verification record.

    The two error estimates are relative: the replay's to the datum norm,
    the duality energy's to the Gramian quadratic form identity_lhs.
    """

    hum_coefficients: np.ndarray
    control: SourceSignal
    final_state_norm: float
    gramian_condition: float
    observability: float
    identity_lhs: float
    identity_rhs: float
    identity_residual: float
    region: ObservationRegion
    replay_steps: int
    replay_capped: bool
    replay_error_estimate: float
    identity_error_estimate: float


def _control_chunks(lam, coeffs, phi_region, times):
    # Free trajectory from datum `coeffs` sampled on region nodes, in blocks
    # sharing endpoint samples so per-block quadrature weights compose exactly.
    # One real product of the eigenvectors with the interleaved (re, im)
    # columns of the modal trajectory gives y.T as an (m, n_t) C-ordered
    # complex array; the block yielded is its transpose, a view.  The modal
    # trajectory (K, n_t) is a temporary of the one expression, so this
    # generator holds nothing while the consumer works on the block.
    for start in range(0, len(times) - 1, CHUNK):
        t = times[start : start + CHUNK + 1]
        yield t, (phi_region @ (coeffs[:, None] * _phases(lam, t)).view(float)).view(complex).T


def _stride_trapezoids(times):
    # Trapezoid sums at strides 1, 2 and 4 over a block of 4j intervals: the
    # first replay level's own samples then give Simpson on dt and on 2 dt.
    return np.stack([_trapezoid_weights(times, stride) for stride in (1, 2, 4)], axis=1)


def _midpoint_rule(first, last):
    # Midpoint sum dt * sum f over a level of new midpoints running from
    # `first` to `last`: trapezoid weights on each block, doubled at the two
    # samples that end the level, which no neighbouring block shares.
    def rule(times):
        w = _trapezoid_weights(times)
        if times[0] == first:
            w[0] *= 2.0
        if times[-1] == last:
            w[-1] *= 2.0
        return w[:, None]

    return rule


def _with_energy(blocks, h, rule, energy):
    # Pass the replay blocks on unchanged, adding the observed energy
    # h * sum_i |y|^2 of each, weighted by `rule`, to the list `energy`.
    # No reference to a block outlives its turn, so each block is freed
    # before the next is sampled.
    for t, y in blocks:
        squares = np.einsum("ij,ij->j", y.T.view(float), y.T.view(float))
        energy.append((h * (squares[0::2] + squares[1::2])) @ rule(t))
        yield t, y
        del y


def _replay_level(lam, h, phi_region, coeffs, times, rule):
    # Sums of one replay level, one column per weight column of `rule`: the
    # forcing integral in the first len(lam) rows, the observed energy last.
    energy = []
    blocks = _with_energy(_control_chunks(lam, coeffs, phi_region, times), h, rule, energy)
    integrals = _forced_increment(lam, h, phi_region, blocks, rule=rule)
    return np.vstack([integrals, np.sum(energy, axis=0)])


def _replay_errors(difference, scales):
    # Error estimates of the forcing integral (norm) and the energy (modulus)
    # from the difference of two Simpson sums, relative to their scales.
    errors = np.array([np.linalg.norm(difference[:-1]), abs(difference[-1])])
    return errors / np.maximum(scales, 1e-300)


def _replay(lam, h, phi_region, coeffs, horizon, scales):
    # Step doubling on Romberg sums.  The first level takes the fewest whole
    # chunks with omega * dt <= 1/2 (omega the eigenvalue spread); each later
    # level samples only the new midpoints, so no sample is taken twice.
    # With trapezoid sums T_N and midpoint sums M_N, T_2N = (T_N + M_N) / 2
    # and Simpson S_2N = (4 T_2N - T_N) / 3; |S_2N - S_N| estimates the error
    # of S_N at no extra samples.  Doubling stops once both relative
    # estimates are within VERIFICATION_TOLERANCE / 100, when one that is not
    # shrinks by less than 4x (the rounding floor), or at REPLAY_STEP_CAP.
    # Returns the Simpson sums, the step count, whether the cap cut the
    # replay short, and the last relative error estimates.
    T = float(horizon)
    target = VERIFICATION_TOLERANCE / 100.0
    n = CHUNK * max(1, math.ceil(2.0 * float(lam[-1] - lam[0]) * T / CHUNK))
    capped = n > REPLAY_STEP_CAP
    n = min(n, CHUNK * math.ceil(REPLAY_STEP_CAP / CHUNK))
    sums = _replay_level(lam, h, phi_region, coeffs, np.linspace(0.0, T, n + 1), _stride_trapezoids)
    trapezoid = sums[:, 0]
    simpson = (4.0 * sums[:, 0] - sums[:, 1]) / 3.0
    errors = _replay_errors(simpson - (4.0 * sums[:, 1] - sums[:, 2]) / 3.0, scales)
    while not np.all(errors <= target):
        if 2 * n > REPLAY_STEP_CAP:
            capped = True
            break
        mid = (np.arange(n) + 0.5) * (T / n)
        midpoint = _replay_level(lam, h, phi_region, coeffs, mid, _midpoint_rule(mid[0], mid[-1]))
        coarse = trapezoid
        trapezoid = 0.5 * (coarse + midpoint[:, 0])
        refined = (4.0 * trapezoid - coarse) / 3.0
        previous, errors = errors, _replay_errors(refined - simpson, scales)
        simpson = refined
        n *= 2
        if np.any((errors > target) & (4.0 * errors > previous)):
            break
    return simpson, n, capped, errors


def hum_control(state, region, horizon):
    """Synthesize the control steering a Schrodinger datum to zero at time T.

    The control is h = y restricted to the region, where y is the free
    evolution of the datum y0 solving the Hermitian Gramian system; the
    steering condition int_0^T f_k(t) e^(-i lambda_k t) dt = -i a_k(0) turns
    into G y0 = -i a(0) with G the closed-form Gramian.  The synthesis
    is verified by replaying the control through the forced-evolution
    integrator and by checking the duality identity (the Gramian quadratic
    form of y0 equals the observed energy of y), both quadratures fed by one
    stream of control samples.  The replay doubles its steps until
    a-posteriori error estimates of both resolve VERIFICATION_TOLERANCE
    with a factor 100 to spare, until the estimates stop shrinking (their
    rounding floor), or until REPLAY_STEP_CAP; the result records the step
    count, whether the cap cut it short, and the last estimates.

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
        control=control,
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
