"""Observability Gramians, the sharpness table, and HUM control synthesis."""

import dataclasses
import math

import numpy as np
import pytest

from fraclab import (
    ControlResult,
    Gramian,
    Grid,
    ModalState,
    ObservationRegion,
    SourceSignal,
    assemble_operator,
    compute_spectrum,
    gramian_condition,
    hum_control,
    observability_constant,
    phase_average_matrix,
    region_mass_matrix,
    schrodinger_evolve,
    schrodinger_forced_evolve,
    schrodinger_gramian,
    sharpness_experiment,
    wave_gramian,
)
from fraclab.errors import IllConditionedError, UncontrollableError

RNG = np.random.default_rng(20260823)


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
        R = region_mass_matrix(spectrum, ObservationRegion.full(), 8)
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
            region_mass_matrix(spectrum, ObservationRegion.full(), 0)
        with pytest.raises(ValueError):
            region_mass_matrix(spectrum, ObservationRegion.full(), spectrum.modes + 1)


class TestSchrodingerGramian:
    def test_matches_time_quadrature(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        g = schrodinger_gramian(spectrum, region, 1.0, 5)
        assert g.kind == "schrodinger"
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
        g = schrodinger_gramian(spectrum, ObservationRegion.full(), 1.5, 5)
        np.testing.assert_allclose(g.entries, 1.5 * np.eye(5), atol=1e-12)

    def test_metadata(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        g = schrodinger_gramian(spectrum, region, 2.0, 4)
        assert (g.beta, g.modes, g.horizon, g.region) == (0.5, 4, 2.0, region)


class TestWaveGramian:
    def test_matches_time_quadrature(self, get_spectrum):
        # z^T G z reproduces the integrated region energy of the velocity
        # trace, with z = (lambda * position; velocity)
        spectrum = get_spectrum(0.5, 64, 4)
        region = ObservationRegion.boundary_layers(0.3)
        g = wave_gramian(spectrum, region, 1.0, 4)
        assert g.kind == "wave"
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
        g = Gramian(
            entries=np.diag([0.25, 4.0]),
            horizon=1.0,
            region=ObservationRegion.full(),
            kind="schrodinger",
            beta=0.5,
            modes=2,
        )
        assert observability_constant(g) == pytest.approx(0.25)
        assert gramian_condition(g) == pytest.approx(16.0)


class TestSharpness:
    @pytest.fixture(scope="class")
    @staticmethod
    def table():
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {
            b: compute_spectrum(assemble_operator(Grid(256), b), 20)
            for b in (0.25, 0.75)
        }
        return sharpness_experiment(spectra, (5, 10, 20), region, 4.0)

    def test_verdict_dichotomy(self, table):
        assert table.betas == (0.25, 0.75)
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
        assert table.mode_counts == (5, 10, 20)
        assert table.horizon == 4.0

    def test_validation(self, get_spectrum):
        region = ObservationRegion.boundary_layers(0.2)
        spectra = {0.5: get_spectrum(0.5, 64, 12)}
        with pytest.raises(ValueError):
            sharpness_experiment(spectra, (5,), region, 1.0)
        with pytest.raises(ValueError):
            sharpness_experiment(spectra, (5, 50), region, 1.0)


class TestHumControl:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        spectrum = compute_spectrum(assemble_operator(Grid(256), 0.6), 8)
        region = ObservationRegion.boundary_layers(0.25)
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a0 /= np.linalg.norm(a0)
        state = ModalState(coefficients=a0, time=0.0, spectrum=spectrum)
        return spectrum, region, state

    def test_steers_to_zero(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        assert isinstance(result, ControlResult)
        assert result.final_state_norm <= 1e-9 * np.linalg.norm(state.coefficients)
        assert result.identity_residual <= 1e-8
        assert result.observability > 0.0
        assert result.gramian_condition >= 1.0
        assert result.modes == 8
        assert result.horizon == 1.0

    def test_control_signal_shape(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        n_nodes = len(region.node_indices(spectrum.grid))
        assert isinstance(result.control, SourceSignal)
        assert result.control.values.shape == (1001, n_nodes)
        assert result.control.dt == pytest.approx(1e-3)
        assert result.control.duration == pytest.approx(1.0)

    def test_replay_through_integrator(self, setup):
        # independent replay: feeding the reported control samples back
        # through the forced propagator must land near zero as well; the
        # reported grid is coarser than the verification grid, so the
        # tolerance reflects its own quadrature error
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        out = schrodinger_forced_evolve(state, result.control, region)
        assert np.linalg.norm(out.coefficients) < 1e-6

    def test_identity_sides_close(self, setup):
        spectrum, region, state = setup
        result = hum_control(state, region, 1.0)
        assert result.identity_lhs == pytest.approx(result.identity_rhs, rel=1e-8)

    def test_zero_datum_gives_zero_control(self, setup):
        spectrum, region, state = setup
        zero = ModalState(coefficients=np.zeros(8), time=0.0, spectrum=spectrum)
        result = hum_control(zero, region, 1.0)
        assert result.final_state_norm == 0.0
        assert np.all(result.control.values == 0.0)

    def test_theta_basis_datum_equivalent(self, setup):
        spectrum, region, state = setup
        direct = hum_control(state, region, 1.0)
        via_theta = hum_control(state.to_basis("theta"), region, 1.0)
        np.testing.assert_allclose(
            via_theta.hum_coefficients, direct.hum_coefficients, rtol=1e-12
        )

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
        state = ModalState(coefficients=np.ones(40), time=0.0, spectrum=spectrum)
        with pytest.raises(UncontrollableError) as info:
            hum_control(state, region, 4.0)
        assert "observability" in info.value.diagnostics

    def test_ill_conditioned_guard(self, setup, monkeypatch):
        # A genuine Schrodinger Gramian cannot trip this guard: its largest
        # eigenvalue is at most T, so condition > 1e12 forces the smallest
        # below the 1e-12 * T floor and the rank guard fires first.  The
        # branch is exercised by injecting a Gramian whose smallest
        # eigenvalue clears the floor while the ratio overflows the limit.
        spectrum, region, state = setup
        synthetic = Gramian(
            entries=np.diag(np.concatenate([[5e-12], np.full(7, 10.0)])),
            horizon=1.0,
            region=region,
            kind="schrodinger",
            beta=0.6,
            modes=8,
        )
        import fraclab.control as control_module

        monkeypatch.setattr(
            control_module, "schrodinger_gramian", lambda *a, **k: synthetic
        )
        with pytest.raises(IllConditionedError) as info:
            hum_control(state, region, 1.0)
        assert info.value.diagnostics["condition"] > 1e12
