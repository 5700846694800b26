"""Observability Gramians, the sharpness table, and HUM control synthesis."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraclab import (
    ControlResult,
    Gramian,
    Grid,
    ModalState,
    ObservationRegion,
    assemble_operator,
    compute_spectrum,
    gramian_condition,
    hum_control,
    observability_constant,
    phase_average_matrix,
    region_mass_matrix,
    schrodinger_gramian,
    sharpness_experiment,
    wave_gramian,
)
from fraclab import cli, control
from fraclab.config import MAX_HORIZON, MAX_NODES, ObservabilityConfig, RunConfig
from fraclab.control import VERIFICATION_TOLERANCE, _trajectory
from fraclab.dynamics import _forced_increment
from fraclab.errors import NumericalError, UncontrollableError
from oracles import forced_evolve, simpson_or_trapezoid

RNG = np.random.default_rng(20260823)


def replay_block(nodes):
    """Samples per HUM replay block over `nodes` region nodes: the most whole
    panels whose complex (nodes x samples) block fits control.BLOCK_BYTES,
    and at least one."""
    panel_bytes = 16 * nodes * control.PANEL_NODES
    return max(1, control.BLOCK_BYTES // panel_bytes) * control.PANEL_NODES


def replay_partition(samples, block):
    """Block lengths of one replay rule of `samples` samples."""
    return [min(block, samples - start) for start in range(0, samples, block)]


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of the matrices passed to the Gramian eigendecomposition, in call order."""
    shapes = []
    solve = control.eigh

    def counting(a):
        shapes.append(np.shape(a))
        return solve(a)

    monkeypatch.setattr(control, "eigh", counting)
    return shapes

# the region covering every interior node
WHOLE = ObservationRegion(((-1.0, 1.0),))


def trapezoid_weights(nt, horizon):
    w = np.full(nt, horizon / (nt - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class TestPhaseAverage:
    def test_diagonal_is_horizon(self):
        lam = np.array([0.3, 1.7, 9.2])
        mu = phase_average_matrix(lam, 2.5)
        np.testing.assert_allclose(np.diag(mu), 2.5, rtol=1e-15)

    def test_closed_form_entry_and_orientation(self):
        # mu[j, k] = integral of exp(i (lam_k - lam_j) t); for lam = (0, pi/2)
        # and T = 1 the entry above the diagonal is (2/pi)(1 + i).
        mu = phase_average_matrix(np.array([0.0, math.pi / 2.0]), 1.0)
        want = (2.0 / math.pi) * (1.0 + 1.0j)
        assert mu[0, 1] == pytest.approx(want, rel=1e-14)
        assert mu[1, 0] == pytest.approx(np.conj(want), rel=1e-14)

    def test_hermitian_positive_semidefinite(self):
        lam = np.sort(RNG.uniform(0.0, 30.0, size=8))
        mu = phase_average_matrix(lam, 3.0)
        np.testing.assert_allclose(mu, mu.conj().T, atol=1e-15)
        eig = np.linalg.eigvalsh(mu)
        assert eig[0] > -1e-12

    def test_resonant_gap_entry_vanishes(self):
        # a full period 2 pi / T of relative phase averages to zero
        T = 1.4
        mu = phase_average_matrix(np.array([1.0, 1.0 + 2.0 * math.pi / T]), T)
        assert abs(mu[0, 1]) < 1e-14

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            phase_average_matrix(np.array([0.3, 1.7]), horizon)

    def test_largest_horizon_keeps_wave_phases_finite(self):
        # the largest eigenvalue any accepted grid can carry, as a wave pair
        # +-lambda whose phase differences reach 2 lambda
        lam = np.array([1.0, (MAX_NODES + 1) ** 2])
        mu = phase_average_matrix(np.concatenate([-lam, lam]), MAX_HORIZON)
        assert np.all(np.isfinite(mu))

    def test_tiny_gaps_evaluated_without_cancellation(self):
        # the naive ratio (e^(ix) - 1)/(ix) loses ~eps/x digits for small
        # phase differences; the assembled entry must instead track the
        # series 1 + ix/2 - x^2/6 - ix^3/24 to machine accuracy
        T = 1.0
        for gap in (0.0, 1e-12, 1e-8, 1e-6, 1e-4):
            mu = phase_average_matrix(np.array([5.0, 5.0 + gap]), T)
            x = gap * T
            want = T * (1.0 + 0.5j * x - x**2 / 6.0 - 1j * x**3 / 24.0)
            assert abs(mu[0, 1] - want) < 1e-15


class TestRegionMass:
    def test_full_region_is_identity(self, get_spectrum):
        spectrum = get_spectrum(0.5, 128, 8)
        R = region_mass_matrix(spectrum, WHOLE, 8)
        np.testing.assert_allclose(R, np.eye(8), atol=1e-12)

    def test_symmetric_spectrum_in_unit_interval(self, get_spectrum):
        spectrum = get_spectrum(0.5, 128, 8)
        R = region_mass_matrix(spectrum, ObservationRegion.boundary_layers(0.3), 8)
        np.testing.assert_allclose(R, R.T, atol=1e-15)
        eig = np.linalg.eigvalsh(R)
        assert eig[0] > -1e-14
        assert eig[-1] < 1.0 + 1e-12

    def test_monotone_in_region(self, get_spectrum):
        # a larger region observes at least as much: R_small <= R_large
        spectrum = get_spectrum(0.5, 128, 6)
        small = region_mass_matrix(
            spectrum, ObservationRegion(intervals=((-1.0, -0.5),)), 6
        )
        large = region_mass_matrix(
            spectrum, ObservationRegion(intervals=((-1.0, -0.2),)), 6
        )
        assert np.linalg.eigvalsh(large - small)[0] > -1e-14

    def test_modes_validation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 128, 8)
        with pytest.raises(ValueError):
            region_mass_matrix(spectrum, WHOLE, 0)
        with pytest.raises(ValueError):
            region_mass_matrix(spectrum, WHOLE, spectrum.modes + 1)


class TestSchrodingerGramian:
    def test_matches_time_quadrature(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        g = schrodinger_gramian(spectrum, region, 1.0, 5)
        idx = region.node_indices(spectrum.grid)
        phi = spectrum.vectors[idx, :5]
        lam = spectrum.eigenvalues[:5]
        nt = 20001
        t = np.linspace(0.0, 1.0, nt)
        w = trapezoid_weights(nt, 1.0)
        phases = np.exp(1j * np.outer(t, lam))
        R = spectrum.h * (phi.T @ phi)
        brute = R * ((phases.conj() * w[:, None]).T @ phases)
        rel = np.max(np.abs(brute - g.entries)) / np.max(np.abs(g.entries))
        assert rel < 1e-8

    def test_quadratic_form_is_observed_energy(self, get_spectrum):
        # a^H G a must equal the time integral of the region-restricted
        # squared modulus of the free evolution, for complex data
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        g = schrodinger_gramian(spectrum, region, 1.0, 5)
        idx = region.node_indices(spectrum.grid)
        phi = spectrum.vectors[idx, :5]
        lam = spectrum.eigenvalues[:5]
        a = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
        lhs = float(np.real(a.conj() @ g.entries @ a))
        nt = 20001
        t = np.linspace(0.0, 1.0, nt)
        w = trapezoid_weights(nt, 1.0)
        y = (np.exp(1j * np.outer(t, lam)) * a) @ phi.T
        rhs = float(w @ (spectrum.h * np.sum(np.abs(y) ** 2, axis=1)))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_hermitian_positive_semidefinite(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        g = schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.25), 2.0, 6)
        np.testing.assert_allclose(g.entries, g.entries.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(g.entries)[0] > -1e-12

    def test_full_region_gramian_is_scaled_identity(self, get_spectrum):
        # with every node observed the phases are masked by orthonormality
        spectrum = get_spectrum(0.5, 64, 5)
        g = schrodinger_gramian(spectrum, WHOLE, 1.5, 5)
        np.testing.assert_allclose(g.entries, 1.5 * np.eye(5), atol=1e-12)

    def test_metadata(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        g = schrodinger_gramian(spectrum, region, 2.0, 4)
        assert g.modes == 4
        assert g.entries.shape == (4, 4)


class TestWaveGramian:
    def test_matches_time_quadrature(self, get_spectrum):
        # z^T G z reproduces the integrated region energy of the velocity
        # trace, with z = (lambda * position; velocity)
        spectrum = get_spectrum(0.5, 64, 4)
        region = ObservationRegion.boundary_layers(0.3)
        g = wave_gramian(spectrum, region, 1.0, 4)
        assert g.entries.shape == (8, 8)
        assert g.entries.dtype == np.float64
        idx = region.node_indices(spectrum.grid)
        phi = spectrum.vectors[idx, :4]
        lam = spectrum.eigenvalues[:4]
        a = RNG.standard_normal(4)
        b = RNG.standard_normal(4)
        z = np.concatenate([lam * a, b])
        lhs = float(z @ g.entries @ z)
        nt = 40001
        t = np.linspace(0.0, 1.0, nt)
        w = trapezoid_weights(nt, 1.0)
        ut = (-(lam * a) * np.sin(np.outer(t, lam)) + b * np.cos(np.outer(t, lam))) @ phi.T
        rhs = float(w @ (spectrum.h * np.sum(ut**2, axis=1)))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_symmetric_positive_semidefinite(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 4)
        g = wave_gramian(spectrum, ObservationRegion.boundary_layers(0.25), 2.0, 4)
        np.testing.assert_allclose(g.entries, g.entries.T, atol=1e-13)
        assert np.linalg.eigvalsh(g.entries)[0] > -1e-10

    def test_single_mode_trace(self, get_spectrum):
        # sin^2 + cos^2 integrates to T, so the 2x2 block has trace R11 * T
        spectrum = get_spectrum(0.5, 64, 4)
        region = ObservationRegion.boundary_layers(0.3)
        g = wave_gramian(spectrum, region, 1.0, 1)
        R = region_mass_matrix(spectrum, region, 1)
        assert np.trace(g.entries) == pytest.approx(R[0, 0] * 1.0, rel=1e-13)


class TestGramianScalars:
    def test_frozen_values_on_synthetic_gramian(self):
        g = Gramian(entries=np.diag([0.25, 4.0]), modes=2)
        assert observability_constant(g) == pytest.approx(0.25)
        assert gramian_condition(g) == pytest.approx(16.0)

    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_rank_guard_bounds_the_condition(self, beta):
        # a Gramian's form is the energy observed over [0, T] of a conserved
        # energy, so its largest eigenvalue is at most T (Schur's bound, with
        # R <= I and diagonal T), and hum_control's rank guard, smallest
        # eigenvalue above 1e-12 T, leaves a condition number below 1e12
        for n in (64, 1024):
            spectrum = compute_spectrum(assemble_operator(Grid(n), beta), min(80, n))
            for epsilon, T, K in itertools.product(
                (0.05, 0.2, 0.9), (1e-300, 1e-3, 1.0, 4.0, 1e6), (1, 5, 20, 40, 80)
            ):
                region = ObservationRegion.boundary_layers(epsilon)
                for make in (schrodinger_gramian, wave_gramian):
                    g = make(spectrum, region, T, min(K, n))
                    assert g.eigenvalues[-1] <= T * (1.0 + 1e-13)
                    if g.eigenvalues[0] > 1e-12 * T:
                        assert gramian_condition(g) < 1e12

    def test_short_horizon_condition_is_the_region_mass_condition(self):
        # as T -> 0 the phase averages tend to T, so G tends to T R: a large
        # condition at a tiny horizon is cond(R), not lost digits, down to the
        # subnormal horizons hum admits; the `hum --n 64 --modes 5` cell has
        # cond(R) = 2.8e5 and TestHumControl's setup cell 9.4e6
        for beta, n, modes, epsilon in ((0.6, 64, 5, 0.2), (0.6, 256, 8, 0.25)):
            spectrum = compute_spectrum(assemble_operator(Grid(n), beta), modes)
            region = ObservationRegion.boundary_layers(epsilon)
            R = Gramian(entries=region_mass_matrix(spectrum, region, modes), modes=modes)
            for T in (1e-9, 1e-50, 1e-150, 1e-300, 1e-303, 4e-304, 3e-304):
                g = schrodinger_gramian(spectrum, region, T, modes)
                assert abs(gramian_condition(g) / gramian_condition(R) - 1.0) <= 1e-8
                ratio = observability_constant(g) / T / observability_constant(R)
                assert abs(ratio - 1.0) <= 1e-8

    def test_constant_and_condition_share_one_eigensolve(self, get_spectrum, eigensolves):
        spectrum = get_spectrum(0.5, 64, 6)
        g = schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.25), 2.0, 6)
        assert observability_constant(g) == g.eigenvalues[0]
        assert gramian_condition(g) == np.max(np.abs(g.eigenvalues)) / np.min(np.abs(g.eigenvalues))
        assert eigensolves == [(6, 6)]


def scaled_eigenvalues(a):
    """scipy's zheevd eigenvalues of a * 2^-e scaled back by 2^e, e the
    exponent of the largest entry modulus: what Gramian.eigenvalues reports."""
    e = max(math.frexp(float(np.max(np.abs(a))))[1], -1022)
    return np.ldexp(scipy.linalg.eigh(a * math.ldexp(1.0, -e), driver="evd")[0], e)


def assert_near(solution, want, g):
    """`solution` within g.modes * cond(g) * eps of `want`, relatively."""
    bound = g.modes * gramian_condition(g) * np.finfo(float).eps
    assert np.linalg.norm(solution - want) <= bound * np.linalg.norm(want)


@pytest.mark.usefixtures("one_blas_thread")
class TestGramianEigensolve:
    # numpy.linalg.eigh runs the LAPACK driver (zheevd, or dsyevd for a real
    # Gramian) that scipy.linalg.eigh runs with driver="evd", and gives the
    # same bits on these Gramians and matrices
    def test_eigenvalues_are_scipy_eigh_scaled(self, gramian):
        assert gramian.eigenvalues.tobytes() == scaled_eigenvalues(gramian.entries).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_small_and_random_matrices(self, n, hermitian):
        a = hermitian(n, 1e3, n)
        g = Gramian(entries=a, modes=n)
        assert g.eigenvalues.tobytes() == scaled_eigenvalues(a).tobytes()

    @pytest.mark.parametrize("horizon", [1e-300, 1e76])
    def test_extreme_horizons(self, get_spectrum, horizon):
        # a horizon near the shortest that hum verifies, and a long one:
        # the power-of-two scaling takes either Gramian to a largest entry
        # in [1/2, 1), where zheevd does not rescale
        spectrum = get_spectrum(0.6, 1024, 20)
        g = schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.2), horizon, 20)
        assert g.eigenvalues.tobytes() == scaled_eigenvalues(g.entries).tobytes()

    def test_subnormal_entries(self):
        # 2^-e stays a float when every entry is subnormal, as at T = 5e-324
        g = Gramian(entries=np.diag([5e-324, 2e-323]), modes=2)
        assert g.eigenvalues.tolist() == [5e-324, 2e-323]

    def test_entries_are_left_unchanged(self, gramian):
        before = gramian.entries.copy()
        eigenvalues = Gramian(entries=gramian.entries, modes=gramian.modes).eigenvalues
        assert len(eigenvalues) == gramian.modes
        assert gramian.entries.tobytes() == before.tobytes()

    def test_failed_eigensolve_raises_numerical_error(self):
        # eigh returns NaN eigenvalues for a NaN entry, so the Gramian
        # refuses the entry itself
        entries = np.eye(3, dtype=complex)
        entries[1, 1] = math.nan
        with pytest.raises(NumericalError, match="eigensolve failed"):
            Gramian(entries=entries, modes=3).eigenvalues

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_entry_is_refused(self, bad, hermitian):
        entries = hermitian(4, 10.0, 0)
        entries[2, 1] = bad
        g = Gramian(entries=entries, modes=4)
        message = "Hermitian eigensolve failed: the Gramian has a non-finite entry"
        with pytest.raises(NumericalError, match=message):
            g.eigenvalues
        with pytest.raises(NumericalError, match=message):
            g.solve(np.ones(4))

    def test_failed_eigensolve_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(control, "eigh", failing)
        args = ["hum", "--n", "64", "--modes", "5", "--out", str(tmp_path / "o"), "--no-timestamp"]
        assert cli.main(args) == 3
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["type"] == "NumericalError"
        assert error["message"] == "Hermitian eigensolve failed: Eigenvalues did not converge"
        assert "numerical failure" in captured.err
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestGramianSolve:
    # The solve 2^-e V((V^H b) / w) from the cached eigendecomposition and
    # scipy's Cholesky solve are both backward stable, so each lies within
    # a small multiple of K cond(G) eps of the exact solution; they are
    # checked against each other to K cond(G) eps
    @staticmethod
    def assert_is_solve_pos(a, rhs):
        g = Gramian(entries=a, modes=len(a))
        assert_near(g.solve(rhs), scipy.linalg.solve(a, rhs, assume_a="pos"), g)

    def test_solve_reuses_the_eigendecomposition(self, hermitian, eigensolves):
        g = Gramian(entries=hermitian(6, 10.0, 0), modes=6)
        eigenvalues = g.eigenvalues
        g.solve(np.ones(6))
        g.solve(np.arange(6) * 1j)
        assert eigensolves == [(6, 6)]
        assert g.eigenvalues is eigenvalues

    def test_solve_is_solve_pos(self, gramian):
        a = gramian.entries
        rhs = [1.0, 1j] @ np.random.default_rng(len(a)).standard_normal((2, len(a)))
        self.assert_is_solve_pos(a, rhs)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_small_and_random_matrices(self, n, hermitian):
        self.assert_is_solve_pos(hermitian(n, 1e3, n), np.arange(n) - 1j)

    # up to 1e12, the condition that hum_control's rank guard admits
    @pytest.mark.parametrize("condition", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_ill_conditioned_matrices(self, condition, hermitian):
        self.assert_is_solve_pos(hermitian(20, condition, 0), np.arange(20) - 1j)

    def test_real_gramian(self, get_spectrum):
        spectrum = get_spectrum(0.75, 64, 6)
        g = wave_gramian(spectrum, ObservationRegion.boundary_layers(0.25), 4.0, 6)
        assert g.entries.dtype == float
        self.assert_is_solve_pos(g.entries, np.linspace(-1.0, 1.0, 12))

    @pytest.mark.parametrize("horizon", [1e-303, 4e-304])
    def test_gramian_of_tiny_norm(self, horizon):
        # the cell of `hum --n 64 --modes 5`, whose smallest eigenvalue is
        # subnormal at these horizons; scipy solves the entries lifted by
        # 2^1000, and the solution is compared in the same units
        spectrum = compute_spectrum(assemble_operator(Grid(64), 0.6), 5)
        g = schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.2), horizon, 5)
        assert 0.0 < g.eigenvalues[0] < np.finfo(float).tiny
        rhs = np.exp(1j * np.arange(5.0)) / 64
        lift = 2.0**1000
        want = scipy.linalg.solve(g.entries * lift, rhs, assume_a="pos")
        assert_near(g.solve(rhs) / lift, want, g)

    def test_inputs_are_left_unchanged(self, gramian):
        before = gramian.entries.copy()
        rhs = np.ones(gramian.modes, dtype=complex)
        gramian.solve(rhs)
        assert gramian.entries.tobytes() == before.tobytes()
        assert np.all(rhs == 1.0)

    def test_overflowing_solution_is_not_finite_without_warning(self):
        # hum_control refuses such a datum as overflowing
        g = Gramian(entries=np.diag([1e-300, 1.0]), modes=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = g.solve(np.array([1e10, 1.0]))
        assert not np.isfinite(solution).all()


class TestSharpness:
    @pytest.fixture(scope="class")
    @staticmethod
    def table():
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {
            b: compute_spectrum(assemble_operator(Grid(256), b), 20)
            for b in (0.25, 0.75)
        }
        return sharpness_experiment(spectra.values(), (5, 10, 20), region, 4.0)

    def test_verdict_dichotomy(self, table):
        assert table.verdicts == ("vanishing", "uniform")

    def test_vanishing_row_collapses(self, table):
        row = table.constants[0]
        assert row[-1] < 1e-2 * row[0]
        assert table.decay_ratios[0] < 1e-2

    def test_uniform_row_settles(self, table):
        row = table.constants[1]
        assert row[-1] > 0.5 * row[0]
        assert table.decay_ratios[1] > 1e-2

    def test_shapes(self, table):
        assert table.constants.shape == (2, 3)
        assert table.conditions.shape == (2, 3)
        assert table.resolved.shape == (2, 3)

    def test_resolved_marks_the_rounding_floor(self):
        # at the `sharpness` defaults the beta = 1/4 constant is resolved at
        # K = 30 and is eigensolver noise at K = 40, below its floor
        # K eps lambda_max
        cfg = RunConfig().sharpness
        region = ObservationRegion.boundary_layers(cfg.epsilon)
        op = assemble_operator(Grid(cfg.n), 0.25)
        spectra = {0.25: compute_spectrum(op, cfg.mode_counts[-1])}
        table = sharpness_experiment(spectra.values(), cfg.mode_counts, region, cfg.T)
        resolved = dict(zip(cfg.mode_counts, table.resolved[0].tolist()))
        assert resolved[30] is True
        assert resolved[40] is False

    def test_resolved_is_above_each_span_floor(self, get_spectrum, monkeypatch):
        # synthetic constants at -1, 0.5 and 2 times their span's real floor
        # K eps lambda_max: only the last clears it
        spectrum = get_spectrum(0.5, 64, 40)
        region = ObservationRegion.boundary_layers(0.2)
        eps = np.finfo(float).eps
        factors = {5: -1.0, 20: 0.5, 40: 2.0}
        floors = {
            k: k * eps * float(schrodinger_gramian(spectrum, region, 1.0, k).eigenvalues[-1])
            for k in factors
        }
        monkeypatch.setattr(control, "observability_constant", lambda g: factors[g.modes] * floors[g.modes])
        table = sharpness_experiment([spectrum], tuple(factors), region, 1.0)
        assert table.resolved.tolist() == [[False, False, True]]

    @pytest.mark.parametrize("case", ["sharpness-defaults", "six-orders"])
    def test_resolved_is_the_sign_and_condition_rule(self, case):
        # on a PSD Gramian a constant above K eps lambda_max is exactly a
        # positive one whose condition number is below 1 / (K eps); the six
        # orders are the benchmark's table at a test-sized grid
        if case == "sharpness-defaults":
            cfg = RunConfig().sharpness
        else:
            cfg = ObservabilityConfig(betas=(0.25, 0.4, 0.5, 0.6, 0.75, 0.9), mode_counts=(10, 20, 40, 80), n=511)
        region = ObservationRegion.boundary_layers(cfg.epsilon)
        largest = cfg.mode_counts[-1]
        spectra = (compute_spectrum(assemble_operator(Grid(cfg.n), b), largest) for b in cfg.betas)
        table = sharpness_experiment(spectra, cfg.mode_counts, region, cfg.T)
        eps = np.finfo(float).eps
        old = (table.constants > 0.0) & (table.conditions < 1.0 / (np.asarray(cfg.mode_counts) * eps))
        assert table.resolved.tolist() == old.tolist()
        assert table.resolved.any() and not table.resolved.all()

    def test_unresolved_smallest_span_gives_no_verdict(self):
        # every constant of both rows sits below the eigensolve floor: their
        # ratios are rounding noise and decide neither regime
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {b: compute_spectrum(assemble_operator(Grid(1024), b), 80) for b in (0.25, 0.3)}
        table = sharpness_experiment(spectra.values(), (40, 60, 80), region, 4.0)
        assert not table.resolved.any()
        assert table.verdicts == ("unresolved", "unresolved")

    @pytest.mark.parametrize(
        "first,last,verdict",
        [(-200.0, 200.0, "unresolved"), (200.0, -1.0, "vanishing"), (50.0, -1.0, "unresolved")],
        ids=["first-unresolved", "floor-decides", "floor-too-high"],
    )
    def test_verdict_reads_only_resolved_constants(self, get_spectrum, monkeypatch, first, last, verdict):
        # synthetic constants at K = 5 and 40, in units of the real K = 40
        # Gramian's floor 40 eps lambda_max, which bounds an unresolved last
        # constant; 200 and 50 floors sit on either side of
        # 1 / VANISHING_DECAY = 100
        spectrum = get_spectrum(0.5, 64, 40)
        region = ObservationRegion.boundary_layers(0.2)
        floor = 40 * np.finfo(float).eps * schrodinger_gramian(spectrum, region, 1.0, 40).eigenvalues[-1]
        cells = {5: first * floor, 40: last * floor}
        monkeypatch.setattr(control, "observability_constant", lambda g: cells[g.modes])
        table = sharpness_experiment([spectrum], tuple(cells), region, 1.0)
        assert table.verdicts == (verdict,)

    def test_one_eigensolve_per_gramian(self, get_spectrum, eigensolves):
        # B orders x C counts Gramians, each solved once for both its
        # constant and its condition number
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {b: get_spectrum(b, 64, 12) for b in (0.25, 0.5, 0.75)}
        sharpness_experiment(spectra.values(), (3, 6, 12), region, 2.0)
        assert sorted(eigensolves) == sorted([(k, k) for k in (3, 6, 12)] * 3)

    def test_single_count_is_a_column_without_verdicts(self, get_spectrum):
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {b: get_spectrum(b, 64, 12) for b in (0.25, 0.75)}
        full = sharpness_experiment(spectra.values(), (3, 6, 12), region, 2.0)
        single = sharpness_experiment(spectra.values(), (6,), region, 2.0)
        assert single.decay_ratios is None
        assert single.verdicts is None
        np.testing.assert_array_equal(single.constants, full.constants[:, 1:2])
        np.testing.assert_array_equal(single.conditions, full.conditions[:, 1:2])
        np.testing.assert_array_equal(single.resolved, full.resolved[:, 1:2])

    def test_validation(self, get_spectrum):
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {0.5: get_spectrum(0.5, 64, 12)}
        with pytest.raises(ValueError):
            sharpness_experiment(spectra.values(), (), region, 1.0)
        with pytest.raises(ValueError):
            sharpness_experiment(spectra.values(), (5, 50), region, 1.0)

    def test_descending_orders_raise(self, get_spectrum):
        # each row's order is its spectrum's own beta
        region = ObservationRegion.boundary_layers(0.2)
        stream = (get_spectrum(b, 64, 12) for b in (0.5, 0.25))
        with pytest.raises(ValueError, match="orders must ascend, got 0.25 after 0.5"):
            sharpness_experiment(stream, (5,), region, 1.0)


class TestHumControl:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        spectrum = compute_spectrum(assemble_operator(Grid(256), 0.6), 8)
        region = ObservationRegion.boundary_layers(0.25)
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a0 /= np.linalg.norm(a0)
        state = ModalState(coefficients=a0, spectrum=spectrum)
        return spectrum, region, state

    def test_steers_to_zero(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        assert isinstance(result, ControlResult)
        assert result.final_state_norm <= 1e-9 * np.linalg.norm(state.coefficients)
        assert result.identity_residual <= 1e-8
        assert result.observability > 0.0
        assert result.gramian_condition >= 1.0

    def test_control_signal_shape(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        n_nodes = len(region.node_indices(spectrum.grid))
        assert result.control_samples.shape == (1001, n_nodes)
        assert result.control_times.tobytes() == np.linspace(0.0, 1.0, 1001).tobytes()

    def test_control_times_end_at_the_horizon(self, setup):
        # 1000 steps of T / 1000 overshoot T = 3.97 by one ulp; the sample
        # times are the linspace the control is sampled at, which ends at T
        spectrum, region, state = setup
        result = hum_control(state, region, 3.97)
        assert result.control_times.tobytes() == np.linspace(0.0, 3.97, 1001).tobytes()
        assert result.control_times[-1] == 3.97

    def test_control_samples_are_the_free_trajectory(self, setup):
        # the reported control is y on the region at the times control_times
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        t = result.control_times
        phi_region = spectrum.vectors[region.node_indices(spectrum.grid), :8]
        want = (np.exp(1j * np.outer(t, spectrum.eigenvalues[:8])) * result.hum_coefficients) @ phi_region.T
        eps = np.finfo(float).eps
        assert np.max(np.abs(result.control_samples - want)) <= 16.0 * eps * np.max(np.abs(want))

    def test_replay_through_integrator(self, setup):
        # independent replay: feeding the reported control samples back
        # through the forced propagator must land near zero as well; the
        # reported grid is coarser than the verification grid, so the
        # tolerance reflects its own quadrature error
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        out = forced_evolve(state, result.control_samples, result.control_times[1], region)
        assert np.linalg.norm(out) < 1e-6

    def test_trajectory_matches_oracle(self, setup):
        # the free trajectory y(t_j, x_i) = sum_k c_k e^(i lambda_k t_j) phi_k(x_i),
        # sampled on disjoint blocks of whole panels as the replay samples it
        spectrum, region, state = setup
        lam = spectrum.eigenvalues[:8]
        phi_region = spectrum.vectors[region.node_indices(spectrum.grid), :8]
        coeffs = state.coefficients
        block = replay_block(len(phi_region))
        times = np.linspace(0.0, 1.0, 2 * block + control.PANEL_NODES)
        blocks = [times[start : start + block] for start in range(0, len(times), block)]
        assert [len(t) for t in blocks] == [block, block, control.PANEL_NODES]
        for t in blocks:
            y = _trajectory(lam, coeffs, phi_region, t)
            want = (np.exp(1j * np.outer(t, lam)) * coeffs) @ phi_region.T
            assert y.shape == want.shape
            assert y.T.flags.c_contiguous  # the replay reads y.T without a copy
            assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))

    def test_identity_sides_close(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        assert result.identity_lhs == pytest.approx(result.identity_rhs, rel=1e-8)

    def test_zero_datum_gives_zero_control(self, setup):
        spectrum, region, state = setup
        zero = ModalState(coefficients=np.zeros(8), spectrum=spectrum)
        result = hum_control(zero, region, 1.0)
        assert result.final_state_norm == 0.0
        assert np.all(result.control_samples == 0.0)

    def test_zero_datum_verifies(self, setup):
        # no absolute floor: the zero forms and sums are relatively exact
        spectrum, region, state = setup
        zero = ModalState(coefficients=np.zeros(8), spectrum=spectrum)
        result = hum_control(zero, region, 1.0)
        assert result.identity_residual == 0.0
        assert result.replay_error_estimate == 0.0
        assert result.identity_error_estimate == 0.0

    @pytest.fixture(scope="class")
    @staticmethod
    def cli_cell():
        # the cell of `hum --n 64 --modes 5`: beta = 0.6, epsilon = 0.2 and
        # the random datum of seed 0, which verifies down to T = 4e-304
        spectrum = compute_spectrum(assemble_operator(Grid(64), 0.6), 5)
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        state = ModalState(coefficients=a0 / np.linalg.norm(a0), spectrum=spectrum)
        return spectrum, ObservationRegion.boundary_layers(0.2), state

    @pytest.mark.parametrize("horizon", [1.0, 1e-150, 1e-300])
    def test_residual_is_relative_to_the_reported_forms(self, request, horizon):
        # the replay's power-of-two scaling is exact, so the residual taken
        # from the reported forms is the reported residual at every horizon;
        # setup's datum is refused at some short horizons, and cli_cell's
        # verifies at both short horizons
        spectrum, region, state = request.getfixturevalue("setup" if horizon == 1.0 else "cli_cell")
        result = hum_control(state, region, horizon)
        lhs, rhs = result.identity_lhs, result.identity_rhs
        assert lhs > 1.0 / horizon
        assert result.identity_residual == abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        assert result.identity_residual > 0.0

    @pytest.mark.parametrize("horizon", [1e-6, 1e-150, 1e-250])
    def test_unverified_control_raises(self, setup, horizon):
        # this datum's control leaves a final state of 1.005e-9 to 1.26e-9
        # relative at these horizons, and is refused rather than returned
        spectrum, region, state = setup
        with pytest.raises(NumericalError, match="relative_final_norm") as info:
            hum_control(state, region, horizon)
        diagnostics = info.value.diagnostics
        assert diagnostics["relative_final_norm"] > VERIFICATION_TOLERANCE
        assert diagnostics["tolerance"] == VERIFICATION_TOLERANCE
        assert diagnostics["replay_capped"] is False
        # the refusal reports the condition that tells rounding from a wrong control
        gramian = schrodinger_gramian(spectrum, region, horizon, state.modes)
        assert diagnostics["gramian_condition"] == gramian_condition(gramian)

    @pytest.mark.parametrize("horizon", [2e-3, 1e-8, 1e-100, 1e-300])
    def test_short_horizons_that_verify(self, setup, horizon):
        # at the same conditions, above 1e-9 / eps, as the refused horizons:
        # the verdict there turns on the rounding of the datum (ROADMAP
        # item 13), with final norms of 6.0e-10 to 9.1e-10 here
        spectrum, region, state = setup
        result = hum_control(state, region, horizon)
        assert result.gramian_condition > 1e-9 / np.finfo(float).eps
        assert result.identity_residual <= VERIFICATION_TOLERANCE

    @pytest.mark.parametrize(
        ("steered", "norm", "horizon", "finite"),
        [
            (False, 1e5, 1e-300, False),
            (False, 1e102, 1e-100, True),
            (False, 1.0, 2e-302, True),
            (True, 6e307, 1e-200, True),
            (False, 1e155, 1.0, True),
            (False, 1e200, 1.0, True),
        ],
        ids=[
            "100000.0-1e-300", "1e+102-1e-100", "1.0-2e-302", "steered-6e+307-1e-200",
            "1e+155-1.0", "1e+200-1.0",
        ],
    )
    def test_overflowing_datum_raises(self, setup, steered, norm, horizon, finite):
        # the first datum's coefficients overflow; the second's are finite
        # but its Gramian form, about |y0|^2 T, is not.  The next two have
        # finite coefficients but infinite control samples: the third only
        # in rounded partial sums (9 of 66066 samples), the fourth outright,
        # since its coefficients are `norm` times the signs of the
        # eigenvectors at one region node, where they sum to about 3.7e308.
        # The last two overflow only their Gramian form at T = 1; the sum of
        # squares of a plain norm overflows for both, which warned and was
        # then refused as a horizon too short
        spectrum, region, state = setup
        gramian = schrodinger_gramian(spectrum, region, horizon, state.modes)
        coefficients = norm * state.coefficients
        if steered:
            phi = spectrum.vectors[region.node_indices(spectrum.grid), : state.modes]
            signs = np.sign(phi[np.argmax(np.abs(phi).sum(axis=1))])
            coefficients = 1j * (gramian.entries @ signs) * norm
        assert np.isfinite(gramian.solve(-1j * coefficients)).all() == finite
        large = ModalState(coefficients=coefficients, spectrum=spectrum)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="overflows") as info:
                hum_control(large, region, horizon)
        assert [str(w.message) for w in caught] == []
        assert info.value.diagnostics["horizon"] == horizon
        assert info.value.diagnostics["datum_norm"] == pytest.approx(math.hypot(*np.abs(coefficients)))

    def test_one_eigensolve(self, setup, eigensolves):
        # the constant, the condition and the HUM datum all come from one
        # eigendecomposition of the Gramian: no second factorization
        spectrum, region, state = setup
        hum_control(state, region, 1.0)
        assert eigensolves == [(8, 8)]

    def test_validation(self, setup):
        spectrum, region, state = setup
        with pytest.raises(TypeError):
            hum_control(state.coefficients, region, 1.0)
        with pytest.raises(ValueError):
            hum_control(state, region, 0.0)

    def test_uncontrollable_truncation_raises(self):
        # far below the dichotomy point the Gramian loses rank numerically
        # once enough modes are kept
        spectrum = compute_spectrum(assemble_operator(Grid(256), 0.25), 40)
        region = ObservationRegion.boundary_layers(0.2)
        state = ModalState(coefficients=np.ones(40), spectrum=spectrum)
        with pytest.raises(UncontrollableError) as info:
            hum_control(state, region, 4.0)
        assert "observability" in info.value.diagnostics


def hum_with_kernel_calls(state, region, horizon):
    """hum_control's result, and the block times of each replay-kernel call."""
    calls = []
    kernel = control._forced_increment

    def recording(lam, h, phi_region, blocks, **kwargs):
        times = []
        calls.append(times)

        def seen():
            for t, samples in blocks:
                times.append(t)
                yield t, samples

        return kernel(lam, h, phi_region, seen(), **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control, "_forced_increment", recording)
        result = hum_control(state, region, horizon)
    return result, calls


class TestAdaptiveReplay:
    # Steps of the fixed fine composite-Simpson grid that the replay is
    # checked against: over four times the most any configuration below takes.
    FINE_STEPS = 2**18

    # the three hum configurations of the dichotomy benchmark workload
    @pytest.fixture(
        scope="class",
        params=[(0.5, 3.0), (0.75, 1.0), (0.9, 1.0)],
        ids=["b0.5_T3", "b0.75_T1", "b0.9_T1"],
    )
    @staticmethod
    def run(request, get_spectrum):
        beta, T = request.param
        spectrum = get_spectrum(beta, 1024, 40)
        region = ObservationRegion.boundary_layers(0.2)
        rng = np.random.default_rng(int(100 * beta))
        a0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        state = ModalState(coefficients=a0 / np.linalg.norm(a0), spectrum=spectrum)
        result, calls = hum_with_kernel_calls(state, region, T)
        return state, region, T, result, calls

    def _fine_simpson(self, lam, h, phi_region, coeffs, T):
        # forcing integral and observed energy by composite Simpson on
        # FINE_STEPS steps, in blocks sharing endpoints, each of as many
        # intervals as a replay block holds samples (an even count); the
        # energy's per-sample terms are summed exactly rounded, so the
        # reference adds no rounding of its own across the 2**18 samples
        fine = np.linspace(0.0, T, self.FINE_STEPS + 1)
        block = replay_block(len(phi_region))
        integral, energy_terms = 0.0, []
        for start in range(0, self.FINE_STEPS, block):
            t = fine[start : start + block + 1]
            y = (np.exp(1j * np.outer(t, lam)) * coeffs) @ phi_region.T
            w = simpson_or_trapezoid(t)
            integral = integral + _forced_increment(lam, h, phi_region, [(t, y)], rule=simpson_or_trapezoid)
            energy_terms.extend((h * np.sum(np.abs(y) ** 2, axis=1) * w).tolist())
        return integral, math.fsum(energy_terms)

    def test_accepted_sums_match_fine_replay(self, run):
        state, region, T, result, _ = run
        spectrum = state.spectrum
        lam = spectrum.eigenvalues[:40]
        phi_region = spectrum.vectors[region.node_indices(spectrum.grid), :40]
        coeffs = result.hum_coefficients
        u0_norm = np.linalg.norm(state.coefficients)
        scales = np.array([u0_norm, result.identity_lhs])
        sums, steps, capped, errors = control._replay(lam, spectrum.h, phi_region, coeffs, T, scales)
        assert (steps, capped) == (result.replay_steps, False)
        assert 4 * steps <= self.FINE_STEPS
        integral, energy = self._fine_simpson(lam, spectrum.h, phi_region, coeffs, T)
        replay_error = np.linalg.norm(sums[:-1] - integral) / u0_norm
        energy_error = abs(sums[-1] - energy) / result.identity_lhs
        assert replay_error <= VERIFICATION_TOLERANCE / 100.0
        assert energy_error <= VERIFICATION_TOLERANCE / 100.0
        # the estimates bound the errors they estimate, and are reported;
        # both sit at the rounding floor (an estimate may read 0.0), so the
        # bound allows the reference sums their own rounding, 8 eps
        eps = np.finfo(float).eps
        assert replay_error <= errors[0] + 8.0 * eps
        assert energy_error <= errors[1] + 8.0 * eps
        assert errors[0] == result.replay_error_estimate
        assert errors[1] == result.identity_error_estimate
        assert result.final_state_norm <= VERIFICATION_TOLERANCE * u0_norm
        assert result.identity_residual <= VERIFICATION_TOLERANCE

    def test_kernel_runs_on_coarse_and_accepted_panels(self, run):
        # one kernel call per block; the coarse rule's blocks together take
        # the composite Gauss-Legendre nodes of P panels, the accepted
        # rule's those of 2P panels, replay_steps samples in all
        state, region, T, result, calls = run
        lam = state.eigenvalues
        panels = max(1, math.ceil((lam[-1] - lam[0]) * T / control.PANEL_NODES))
        nodes, _ = np.polynomial.legendre.leggauss(control.PANEL_NODES)
        block = replay_block(len(region.node_indices(state.spectrum.grid)))
        coarse = replay_partition(panels * control.PANEL_NODES, block)
        assert all(len(times) == 1 for times in calls)
        assert [len(times[0]) for times in calls] == coarse + replay_partition(result.replay_steps, block)
        rules = calls[: len(coarse)], calls[len(coarse) :]
        for blocks, p in zip(rules, (panels, 2 * panels)):
            width = T / p
            want = np.add.outer(width * np.arange(p), 0.5 * width * (nodes + 1.0)).ravel()
            got = np.concatenate([times[0] for times in blocks])
            assert len(got) == p * control.PANEL_NODES
            assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * T
        assert sum(len(times[0]) for times in rules[1]) == result.replay_steps

    def test_blocks_are_whole_panels_within_the_byte_budget(self, run):
        # each block is the most whole panels whose complex samples fit
        # BLOCK_BYTES, but for the last of a rule; the coarse rule's blocks
        # take half of replay_steps and the accepted rule's all of it
        state, region, T, result, calls = run
        nodes = len(region.node_indices(state.spectrum.grid))
        lengths = [len(times[0]) for times in calls]
        steps = result.replay_steps
        assert len(lengths) >= 4
        for n_t in lengths:
            assert n_t % control.PANEL_NODES == 0
            assert 16 * nodes * n_t <= control.BLOCK_BYTES
        cuts = list(itertools.accumulate(lengths))
        assert cuts[-1] == steps // 2 + steps
        coarse = cuts.index(steps // 2) + 1
        rules = lengths[:coarse], lengths[coarse:]
        for blocks in rules:
            for n_t in blocks[:-1]:
                assert 16 * nodes * (n_t + control.PANEL_NODES) > control.BLOCK_BYTES

    def test_panel_past_the_budget_is_a_block_alone(self, get_spectrum, monkeypatch):
        # a budget below one panel's samples still replays, one panel a block
        spectrum = get_spectrum(0.9, 1024, 40)
        region = ObservationRegion.boundary_layers(0.2)
        nodes = len(region.node_indices(spectrum.grid))
        monkeypatch.setattr(control, "BLOCK_BYTES", 16 * nodes * control.PANEL_NODES - 1)
        rng = np.random.default_rng(90)
        a0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        state = ModalState(coefficients=a0 / np.linalg.norm(a0), spectrum=spectrum)
        result, calls = hum_with_kernel_calls(state, region, 1.0)
        panels = 3 * result.replay_steps // (2 * control.PANEL_NODES)  # both rules
        assert [len(times[0]) for times in calls] == [control.PANEL_NODES] * panels
        assert result.final_state_norm <= VERIFICATION_TOLERANCE
        assert result.identity_residual <= VERIFICATION_TOLERANCE

    def test_rule_past_one_chunk_runs_one_kernel_call_per_block(self, get_spectrum):
        # beta = 1, K = 60, T = 0.5: 139 panels, so the coarse rule takes
        # 4448 samples and the accepted rule 8896, each in blocks of the
        # byte rule (two panels on these 410 region nodes)
        K, T = 60, 0.5
        spectrum = get_spectrum(1.0, 2047, K)
        region = ObservationRegion.boundary_layers(0.2)
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        state = ModalState(coefficients=a0 / np.linalg.norm(a0), spectrum=spectrum)
        result, calls = hum_with_kernel_calls(state, region, T)
        lam = state.eigenvalues
        coarse = max(1, math.ceil((lam[-1] - lam[0]) * T / control.PANEL_NODES)) * control.PANEL_NODES
        accepted = result.replay_steps
        block = replay_block(len(region.node_indices(spectrum.grid)))
        assert accepted == 2 * coarse > coarse > block
        assert all(len(times) == 1 for times in calls)
        lengths = [len(times[0]) for times in calls]
        assert lengths == replay_partition(coarse, block) + replay_partition(accepted, block)
        assert sum(lengths) == coarse + accepted
        assert result.final_state_norm <= VERIFICATION_TOLERANCE * np.linalg.norm(state.coefficients)
        assert result.identity_residual <= VERIFICATION_TOLERANCE
