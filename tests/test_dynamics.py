"""Modal states, projections, free and forced flows, conservation laws."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate

from fraclab import (
    ModalState,
    ObservationRegion,
    WaveModalState,
    modal_invariants,
    schrodinger_evolve,
    wave_energy,
    wave_evolve,
)
from fraclab.dynamics import _forced_increment
from fraclab.errors import FraclabError
from oracles import forced_evolve, simpson_or_trapezoid

RNG = np.random.default_rng(20260823)


def random_state(spectrum, modes):
    a = RNG.standard_normal(modes) + 1j * RNG.standard_normal(modes)
    return ModalState(coefficients=a, spectrum=spectrum)


class TestModalState:
    def test_validation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        with pytest.raises(ValueError):
            ModalState(coefficients=np.ones((2, 2)), spectrum=spectrum)
        with pytest.raises(ValueError):
            ModalState(coefficients=np.array([]), spectrum=spectrum)
        with pytest.raises(ValueError):
            ModalState(coefficients=np.ones(spectrum.modes + 1), spectrum=spectrum)
        with pytest.raises(ValueError):
            ModalState(coefficients=np.array([1.0, np.nan]), spectrum=spectrum)


class TestFreeFlow:
    def test_exact_phase_rotation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        state = random_state(spectrum, 6)
        out = schrodinger_evolve(state, 0.7)
        want = state.coefficients * np.exp(1j * state.eigenvalues * 0.7)
        np.testing.assert_array_equal(out.coefficients, want)

    def test_invariants_conserved(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 8)
        state = random_state(spectrum, 8)
        before = modal_invariants(state)
        for t in (0.1, 1.0, 9.4):
            after = modal_invariants(schrodinger_evolve(state, t))
            np.testing.assert_allclose(after, before, rtol=1e-14)

    def test_group_property_and_reversibility(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        state = random_state(spectrum, 6)
        two_steps = schrodinger_evolve(schrodinger_evolve(state, 0.3), 0.4)
        one_step = schrodinger_evolve(state, 0.7)
        np.testing.assert_allclose(two_steps.coefficients, one_step.coefficients, rtol=1e-13)
        back = schrodinger_evolve(schrodinger_evolve(state, 1.3), -1.3)
        np.testing.assert_allclose(back.coefficients, state.coefficients, rtol=1e-13)

    def test_invariant_values_explicit(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 3)
        lam = spectrum.eigenvalues[:2]
        state = ModalState(
            coefficients=np.array([3.0, 4.0j]), spectrum=spectrum
        )
        mass, energy, energy2 = modal_invariants(state)
        assert mass == pytest.approx(25.0)
        assert energy == pytest.approx(9.0 * lam[0] + 16.0 * lam[1])
        assert energy2 == pytest.approx(9.0 * lam[0] ** 2 + 16.0 * lam[1] ** 2)


class TestForcedFlow:
    def test_zero_source_reduces_to_free_flow(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        region = ObservationRegion.boundary_layers(0.3)
        n_nodes = len(region.node_indices(spectrum.grid))
        state = random_state(spectrum, 6)
        forced = forced_evolve(state, np.zeros((41, n_nodes)), 0.025, region)
        free = schrodinger_evolve(state, 40 * 0.025)
        np.testing.assert_allclose(forced, free.coefficients, rtol=1e-15)

    def test_constant_source_closed_form(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 4)
        region = ObservationRegion.boundary_layers(0.3)
        idx = region.node_indices(spectrum.grid)
        state = random_state(spectrum, 4)
        profile = np.cos(spectrum.grid.nodes[idx])
        m = 2001
        dt = 1.0 / (m - 1)
        out = forced_evolve(state, np.tile(profile, (m, 1)), dt, region)
        lam = state.eigenvalues
        f = spectrum.h * (spectrum.vectors[idx, :4].T @ profile)
        T = dt * (m - 1)
        want = np.exp(1j * lam * T) * state.coefficients - (f / lam) * (
            np.exp(1j * lam * T) - 1.0
        )
        np.testing.assert_allclose(out, want, rtol=1e-10)

    def test_time_varying_source_against_ode_solver(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 5)
        region = ObservationRegion.boundary_layers(0.3)
        idx = region.node_indices(spectrum.grid)
        x = spectrum.grid.nodes[idx]
        state = random_state(spectrum, 5)
        lam = state.eigenvalues
        phi_region = spectrum.vectors[idx, :5]

        def node_values(t):
            return np.cos(3.0 * t) * np.exp(-(x**2)) + np.sin(t) * x

        m = 4001
        dt = 1.0 / (m - 1)
        times = dt * np.arange(m)
        out = forced_evolve(state, np.array([node_values(t) for t in times]), dt, region)

        def rhs(t, y):
            a = y[:5] + 1j * y[5:]
            f = spectrum.h * (phi_region.T @ node_values(t))
            da = 1j * lam * a - 1j * f
            return np.concatenate([da.real, da.imag])

        y0 = np.concatenate([state.coefficients.real, state.coefficients.imag])
        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14
        )
        want = sol.y[:5, -1] + 1j * sol.y[5:, -1]
        np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-11)


class TestWaveFlow:
    def test_single_mode_closed_form(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 3)
        lam = spectrum.eigenvalues[0]
        state = WaveModalState(
            position=np.array([1.0]), velocity=np.array([0.5]), spectrum=spectrum
        )
        out = wave_evolve(state, 0.8)
        assert out.position[0] == pytest.approx(
            np.cos(lam * 0.8) + 0.5 * np.sin(lam * 0.8) / lam, rel=1e-14
        )
        assert out.velocity[0] == pytest.approx(
            -lam * np.sin(lam * 0.8) + 0.5 * np.cos(lam * 0.8), rel=1e-14
        )

    def test_energy_conserved(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        state = WaveModalState(
            position=RNG.standard_normal(6),
            velocity=RNG.standard_normal(6),
            spectrum=spectrum,
        )
        before = wave_energy(state)
        for t in (0.2, 1.7, 8.3):
            assert wave_energy(wave_evolve(state, t)) == pytest.approx(before, rel=1e-13)

    def test_reversibility(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 6)
        state = WaveModalState(
            position=RNG.standard_normal(6),
            velocity=RNG.standard_normal(6),
            spectrum=spectrum,
        )
        back = wave_evolve(wave_evolve(state, 2.1), -2.1)
        np.testing.assert_allclose(back.position, state.position, atol=1e-13)
        np.testing.assert_allclose(back.velocity, state.velocity, atol=1e-13)

    def test_energy_formula(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 3)
        lam = spectrum.eigenvalues[:2]
        state = WaveModalState(
            position=np.array([2.0, 0.0]),
            velocity=np.array([0.0, 3.0]),
            spectrum=spectrum,
        )
        assert wave_energy(state) == pytest.approx(4.0 * lam[0] ** 2 + 9.0)

    def test_nonpositive_frequency_guard(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 3)
        broken = dataclasses.replace(
            spectrum, eigenvalues=np.array([0.0, 1.0, 2.0]), ties=()
        )
        state = WaveModalState(
            position=np.ones(3), velocity=np.ones(3), spectrum=broken
        )
        with pytest.raises(FraclabError):
            wave_evolve(state, 1.0)

    def test_shape_validation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 64, 3)
        with pytest.raises(ValueError):
            WaveModalState(
                position=np.ones(2), velocity=np.ones(3), spectrum=spectrum
            )
        with pytest.raises(TypeError):
            wave_evolve(random_state(spectrum, 2), 1.0)


def _oracle_integrand(lam, h, phi_region, times, samples):
    # f_k(t) e^(-i lambda_k t) by a complex product and one exp per (sample, mode)
    return h * (samples @ phi_region) * np.exp(-1j * np.outer(times, lam))


def _oracle_increment(lam, h, phi_region, blocks):
    # The replay kernel as it was first written: the direct integrand and
    # the quadrature rules spelled out.
    total = np.zeros(len(lam), dtype=complex)
    for times, samples in blocks:
        g = _oracle_integrand(lam, h, phi_region, times, samples)
        dt = times[1] - times[0]
        intervals = len(times) - 1
        if intervals % 2 == 0:
            w = np.ones(intervals + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            total += (dt / 3.0) * (w @ g)
        else:
            total += dt * (g[0] + g[-1]) / 2.0 + dt * g[1:-1].sum(axis=0)
    return total


class TestReplayKernel:
    @staticmethod
    def _problem(n_t, complex_samples, layout):
        rng = np.random.default_rng(n_t)
        lam = np.sort(rng.uniform(1.0, 60.0, 7))
        phi_region = rng.standard_normal((11, 7))
        samples = rng.standard_normal((n_t, 11))
        if complex_samples:
            samples = samples + 1j * rng.standard_normal((n_t, 11))
        if layout == "transposed":
            samples = np.ascontiguousarray(samples.T).T
        times = 0.3 + 0.01 * np.arange(n_t)
        return lam, 0.05, phi_region, times, samples

    @pytest.mark.parametrize("layout", ["c_ordered", "transposed"])
    @pytest.mark.parametrize("complex_samples", [False, True])
    @pytest.mark.parametrize("n_t", [65, 64, 2], ids=["simpson", "trapezoid", "one_interval"])
    def test_forced_increment_matches_oracle(self, n_t, complex_samples, layout):
        lam, h, phi_region, times, samples = self._problem(n_t, complex_samples, layout)
        got = _forced_increment(lam, h, phi_region, [(times, samples)], rule=simpson_or_trapezoid)
        want = _oracle_increment(lam, h, phi_region, [(times, samples)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "n_t, cuts", [(129, (0, 64, 128)), (64, (0, 21, 42, 63))], ids=["simpson", "trapezoid"]
    )
    def test_blocks_compose(self, n_t, cuts):
        # blocks sharing their endpoint samples give the one-block quadrature
        lam, h, phi_region, times, samples = self._problem(n_t, True, "c_ordered")
        blocks = [(times[a : b + 1], samples[a : b + 1]) for a, b in zip(cuts, cuts[1:])]
        whole = _forced_increment(lam, h, phi_region, [(times, samples)], rule=simpson_or_trapezoid)
        split = _forced_increment(lam, h, phi_region, blocks, rule=simpson_or_trapezoid)
        assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))
        want = _oracle_increment(lam, h, phi_region, blocks)
        assert np.max(np.abs(split - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gauss_legendre_blocks_match_oracle(self):
        # non-uniform times with a vector rule: two blocks of two 16-node
        # Gauss-Legendre panels each give the weighted sum of the direct
        # integrand
        lam, h, phi_region, _, samples = self._problem(64, True, "c_ordered")
        nodes, weights = np.polynomial.legendre.leggauss(16)
        width = 0.25
        times = np.add.outer(0.3 + width * np.arange(4), 0.5 * width * (nodes + 1.0)).ravel()
        panel_weights = 0.5 * width * weights
        blocks = [(times[:32], samples[:32]), (times[32:], samples[32:])]

        def rule(t):
            return np.tile(panel_weights, len(t) // 16)

        got = _forced_increment(lam, h, phi_region, blocks, rule=rule)
        assert got.shape == (len(lam),)
        want = np.tile(panel_weights, 4) @ _oracle_integrand(lam, h, phi_region, times, samples)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
