"""Observability Gramians, observability constants, and HUM control synthesis.

The Schrodinger Gramian over a mode span is assembled in closed form: the
spatial factor is the region mass matrix of eigenvectors, the temporal factor
the exact average of e^(i (lambda_j - lambda_k) t) over [0, T].  One cached
Hermitian eigendecomposition of it gives its minimum eigenvalue, the best
observability constant on that span, its condition number, and the solve
that drives the control synthesis: the control is the restriction to the
region of a free trajectory whose datum solves the Gramian system, verified by
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
from numpy.linalg import LinAlgError, eigh

from .dynamics import ModalState, _forced_increment
from .errors import NumericalError, UncontrollableError
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

# Total decay const(K_max)/const(K_min) below which a sharpness row is
# classified as vanishing; calibrated against direct Gramian computations on
# both sides of the dichotomy (see sharpness_experiment docstring).
VANISHING_DECAY = 1e-2

# Relative accuracy to which hum_control verifies a control, or refuses it.
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
# takes none and hum_control refuses the control.
REPLAY_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class Gramian:
    """Hermitian observability Gramian over a truncated mode span.

    One Hermitian eigendecomposition (numpy.linalg.eigh) of the entries,
    cached on first use, gives the eigenvalues, and with them the
    observability constant, the condition number and the rounding floor,
    and the solves of the Gramian system.  It factors the entries scaled by
    2^-e, e the exponent of the largest entry modulus, so the scaled
    matrix has a largest entry in [1/2, 1): the eigenvalues and solutions
    are scaled back by exact powers of two, and a Gramian of tiny norm
    keeps its smallest eigenvalues normal where an unscaled factorization
    would make them subnormal.
    """

    entries: np.ndarray
    modes: int

    @cached_property
    def _decomposition(self):
        # (w, V, e) with entries = 2^e V diag(w) V^H; raises NumericalError
        # on a non-finite entry, which eigh would pass through as NaN
        # eigenvalues, and when eigh does not converge
        top = float(np.max(np.abs(self.entries)))
        if not math.isfinite(top):
            raise NumericalError("Hermitian eigensolve failed: the Gramian has a non-finite entry")
        # bounded so that 2^-e is a float when the entries are subnormal
        e = max(math.frexp(top)[1], -1022)
        try:
            w, v = eigh(self.entries * math.ldexp(1.0, -e))
        except LinAlgError as exc:
            raise NumericalError(f"Hermitian eigensolve failed: {exc}") from None
        return w, v, e

    @cached_property
    def eigenvalues(self):
        """Ascending eigenvalues of the entries."""
        w, _, e = self._decomposition
        return np.ldexp(w, e)

    def solve(self, rhs):
        """Solution x of entries x = rhs, as 2^-e V((V^H rhs) / w).

        The entries must be positive definite; `hum_control` checks that
        through the smallest eigenvalue before it solves.  An entry of x
        beyond the float range comes out infinite or NaN, without a
        warning, for the caller to refuse.
        """
        w, v, e = self._decomposition
        with np.errstate(over="ignore", invalid="ignore"):
            return (v @ ((v.conj().T @ rhs) / w)) * math.ldexp(1.0, -e)


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
    The table commands write every field to their JSON report as it stands.
    Where a constant is not resolved, its condition is rounding noise too:
    its denominator, the least eigenvalue modulus, lies below the floor.
    """

    constants: np.ndarray
    conditions: np.ndarray
    resolved: np.ndarray  # constant above its span's rounding floor K * eps * lambda_max
    decay_ratios: np.ndarray  # const at K_max over const at K_min, per beta
    verdicts: tuple  # "vanishing", "uniform" or "unresolved" per beta


def sharpness_experiment(spectra, mode_counts, region, horizon):
    """Observability constants across one or more mode counts for several orders.

    `spectra` yields Spectrum records in ascending order of their `beta`,
    each holding at least max(mode_counts) modes.  A spectrum is dropped
    once its row of Gramians is done, so a generator that computes each one
    on demand keeps one alive at a time.  With two or more counts a row is
    classified "vanishing" when the constant falls by more than a factor 100
    from the smallest to the largest span (the two regimes sit orders of
    magnitude apart: below the dichotomy point the constants collapse by many
    decades over K = 5..40, above it they settle at an order-one fraction of
    their small-K value).

    A Hermitian eigensolve of a K x K Gramian resolves eigenvalues only down
    to about the floor K * eps * lambda_max (the Weyl bound), so a constant
    counts as resolved when it lies above its span's floor; below it the
    digits are rounding noise.  The condition numbers are reported beside
    the constants and decide nothing.  A verdict reads only resolved
    digits: a row whose smallest-span constant is unresolved is
    "unresolved"; an unresolved largest-span constant lies below its floor,
    so its row is "vanishing" when that floor is below VANISHING_DECAY times
    the smallest-span constant, and "unresolved" otherwise.
    """
    counts = tuple(sorted(int(k) for k in mode_counts))
    if not counts:
        raise ValueError("need at least one mode count")
    eps = np.finfo(float).eps
    betas, constants, conditions, floors = [], [], [], []
    for spectrum in spectra:
        b = spectrum.beta
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
        # each span's rounding floor, from its cached eigenvalues
        floors.append([k * eps * float(g.eigenvalues[-1]) for k, g in zip(counts, gramians)])
    shape = (-1, len(counts))
    constants, conditions, floors = (np.reshape(v, shape) for v in (constants, conditions, floors))
    resolved = constants > floors
    decay = verdicts = None
    if len(counts) >= 2:
        decay = constants[:, -1] / constants[:, 0]
        rows = zip(constants.tolist(), decay.tolist(), resolved.tolist(), floors[:, -1].tolist())
        verdicts = tuple(_verdict(*row) for row in rows)
    return SharpnessTable(
        constants=constants,
        conditions=conditions,
        resolved=resolved,
        decay_ratios=decay,
        verdicts=verdicts,
    )


def _verdict(constants, ratio, resolved, floor):
    # A row's verdict from its smallest- and largest-span constants, read
    # only where they are resolved; `floor` bounds an unresolved last one.
    if not resolved[0]:
        return "unresolved"
    if resolved[-1]:
        return "vanishing" if ratio < VANISHING_DECAY else "uniform"
    return "vanishing" if floor < VANISHING_DECAY * constants[0] else "unresolved"


@dataclass(frozen=True)
class ControlResult:
    """Synthesized HUM control with its verification record.

    control_samples[j, i] is the control at time control_times[j] on the
    i-th region node, for the 1001 times np.linspace(0, T, 1001), which end
    exactly at T.  The two error estimates are relative: the replay's to the
    datum norm, the duality energy's to the Gramian quadratic form
    identity_lhs.  hum_control returns only verified controls, so
    replay_capped is always False.  `hum` writes every scalar field to
    hum.json as it stands, so each number of that report comes from this
    verified record.
    """

    hum_coefficients: np.ndarray
    control_samples: np.ndarray
    control_times: np.ndarray
    initial_norm: float  # of the datum
    final_state_norm: float
    relative_final_norm: float  # to the datum norm
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
    return sums, steps, False, _relative(errors, scales)


def _relative(differences, scales):
    # Each difference over its scale.  A zero scale comes only from the zero
    # datum, where an exact zero difference is relatively zero and any other
    # is infinitely large; there is no absolute floor to divide by instead.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(differences, scales)
    return np.where(np.equal(differences, 0.0), 0.0, ratios)


def _norm(x):
    # |x| of a finite complex vector, taken on x scaled by 2^-e to a largest
    # real or imaginary part in [1/2, 1), as Gramian._decomposition scales
    # its entries: numpy sums the squares, which overflow from a norm of
    # about 1.3e154 on and lose digits below about 1e-154.  The powers of two
    # are exact, so between those bounds this is the plain norm's float;
    # beyond the float range it is inf.
    e = max(math.frexp(float(np.max(np.abs(x.view(float)))))[1], -1022)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(x * math.ldexp(1.0, -e)), e))


def hum_control(state, region, horizon):
    """Synthesize the control steering a Schrodinger datum to zero at time T.

    The control is h = y restricted to the region, where y is the free
    evolution of the datum y0 solving the Hermitian Gramian system; the
    steering condition int_0^T f_k(t) e^(-i lambda_k t) dt = -i a_k(0) turns
    into G y0 = -i a(0) with G the closed-form Gramian, solved by
    Gramian.solve from the eigendecomposition that also gives the
    observability constant and the condition number.  The synthesis
    is verified by replaying the control through the forced-evolution
    integrator and by checking the duality identity (the Gramian quadratic
    form of y0 equals the observed energy of y), both summed from the same
    control samples.  The replay runs two composite Gauss-Legendre rules,
    the second on twice the panels of the first, each sampling its nodes
    block by block and passing one block per call to the kernel.  It
    records the second's sample count and the relative differences of the
    two as a-posteriori error estimates.  When the second rule would exceed
    REPLAY_STEP_CAP samples, nothing is sampled.

    Raises UncontrollableError when the observability constant is
    numerically zero, and NumericalError when the HUM datum, a reported
    control sample or the datum's Gramian form overflows (at horizons below
    about 3e-304 for a unit datum, and from a datum norm of about 1e154 at
    T = 1) or the control fails its verification:
    the relative final state, the identity residual or an error estimate
    exceeds VERIFICATION_TOLERANCE, or the replay would pass its step cap
    (replay_steps, a float, says how far); a verification failure's
    diagnostics carry the Gramian's condition.
    """
    if not isinstance(state, ModalState):
        raise TypeError("hum_control expects a ModalState datum")
    a0 = state.coefficients
    spectrum = state.spectrum
    K = state.modes
    T = float(horizon)

    g = schrodinger_gramian(spectrum, region, T, K)
    obs = observability_constant(g)
    # the Gramian's form observes part of a conserved energy over [0, T], so
    # its largest eigenvalue is at most T and this bounds its condition by 1e12
    if obs <= 1e-12 * T:
        raise UncontrollableError(
            "observability constant is numerically zero at this truncation",
            diagnostics={"observability": obs, "horizon": T, "modes": K},
        )

    u0_norm = _norm(a0)

    def overflow():
        return NumericalError(
            "HUM datum overflows: the horizon is too short or the datum norm too large to represent it",
            diagnostics={"horizon": T, "datum_norm": u0_norm, "observability": obs, "modes": K},
        )

    steering = g.entries
    coeffs = g.solve(-1j * a0)
    if not np.isfinite(coeffs).all():
        raise overflow()

    lam = spectrum.eigenvalues[:K]
    idx = region.node_indices(spectrum.grid)
    phi_region = spectrum.vectors[idx, :K]

    # Reported control samples on the conventional grid of step T / 1000.
    # Finite coefficients near the largest double can still give an infinite
    # sample, or an infinite partial sum on the way to a finite one; either
    # is refused like an infinite coefficient.
    report_times = np.linspace(0.0, T, 1001)
    with np.errstate(over="ignore", invalid="ignore"):
        y_report = _trajectory(lam, coeffs, phi_region, report_times)
    if not np.isfinite(y_report).all():
        raise overflow()

    # One replay gives the forcing integral and, for the duality identity,
    # the observed energy of y, against the Gramian quadratic form of y0.
    # The datum grows like 1/T; the replay's squared samples are about
    # |y0|^2 and the two forms about |y0|^2 T.  So the replay runs on the
    # datum scaled by 2^-e to a largest real or imaginary part (finite where
    # a modulus may not be) times T^(1/4) in [1/2, 1).  That puts both
    # within a factor T^(-1/2) or T^(1/2) of one, as far from overflow as
    # from underflow.  The power of two is exact, and the relative residual
    # and estimates do not depend on it.
    e = math.frexp(float(np.max(np.abs(coeffs.view(float)))) * T**0.25)[1]
    unit = math.ldexp(1.0, -e)
    scaled = coeffs * unit
    lhs = float(np.real(np.vdot(scaled, steering @ scaled)))
    scales = np.array([u0_norm * unit, abs(lhs)])
    sums, n_steps, capped, errors = _replay(lam, spectrum.h, phi_region, scaled, T, scales)
    a_final = np.exp(1j * lam * T) * (a0 - 1j * (sums[:-1] / unit))
    final_norm = _norm(a_final)
    rhs = float(sums[-1].real)
    residual = float(_relative(abs(lhs - rhs), max(abs(lhs), abs(rhs))))
    try:
        identity_lhs, identity_rhs = math.ldexp(lhs, 2 * e), math.ldexp(rhs, 2 * e)
    except OverflowError:
        raise overflow() from None

    checked = {
        "relative_final_norm": float(_relative(final_norm, u0_norm)),
        "identity_residual": residual,
        "replay_error_estimate": float(errors[0]),
        "identity_error_estimate": float(errors[1]),
    }
    problems = [
        f"{key} = {value:.3e} exceeds {VERIFICATION_TOLERANCE:g}"
        for key, value in checked.items()
        if not value <= VERIFICATION_TOLERANCE  # nan fails too
    ]
    if capped:
        problems.append(f"replay would need {n_steps:.3e} steps, past its step cap")
    condition = gramian_condition(g)
    if problems:
        # cond(G) * eps nears the tolerance at short horizons, which tells a
        # refusal there from a wrong control
        diagnostics = {**checked, "replay_steps": n_steps, "replay_capped": capped}
        diagnostics.update(gramian_condition=condition, tolerance=VERIFICATION_TOLERANCE)
        raise NumericalError("hum verification failed: " + "; ".join(problems), diagnostics)

    return ControlResult(
        hum_coefficients=coeffs,
        control_samples=y_report,
        control_times=report_times,
        initial_norm=u0_norm,
        final_state_norm=final_norm,
        relative_final_norm=checked["relative_final_norm"],
        gramian_condition=condition,
        observability=obs,
        identity_lhs=identity_lhs,
        identity_rhs=identity_rhs,
        identity_residual=residual,
        region=region.snapped(spectrum.grid),
        replay_steps=n_steps,
        replay_capped=capped,
        replay_error_estimate=checked["replay_error_estimate"],
        identity_error_estimate=checked["identity_error_estimate"],
    )
