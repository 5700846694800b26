"""Boundary-coefficient extraction and the two Pohozaev-type balances."""

import math

import numpy as np
import pytest

from fraclab import (
    Grid,
    ModalState,
    eigen_pohozaev_check,
    schrodinger_pohozaev_report,
    two_sided_estimate_ratio,
)
from fraclab.identity import _layer_fit, _second_exponent

RNG = np.random.default_rng(20260823)


def one_fit(values, grid, beta):
    """Coefficients and residuals of one vector, each a (left, right) pair."""
    coefficients, residuals = _layer_fit(np.asarray(values)[:, None], grid, beta)
    return coefficients[:, 0], residuals[:, 0]


class TestBoundaryTrace:
    def test_classical_sine_profile(self):
        # sin(pi (x + 1) / 2) behaves like (pi/2) * dist near both endpoints
        grid = Grid(512)
        u = np.sin(np.pi * (grid.nodes + 1.0) / 2.0)
        (left, right), residuals = one_fit(u, grid, 1.0)
        assert _second_exponent(1.0) == 2.0  # the fit is on d and d^2
        assert left == pytest.approx(np.pi / 2.0, rel=1e-3)
        assert right == pytest.approx(np.pi / 2.0, rel=1e-3)
        # the d^3 term of the sine is outside the two-power model, leaving
        # a small but nonzero layer misfit
        assert 0.0 < residuals.min() and residuals.max() < 1e-4

    def test_classical_cosine_profile(self):
        grid = Grid(512)
        u = np.cos(np.pi * grid.nodes / 2.0)
        (left, right), _ = one_fit(u, grid, 1.0)
        assert left == pytest.approx(np.pi / 2.0, rel=1e-3)
        assert right == pytest.approx(np.pi / 2.0, rel=1e-3)

    def test_pure_power_recovered_exactly(self):
        # a vector that is exactly c1 d^beta + c2 d^(2 beta) near the left
        # endpoint is reproduced by the fit with zero misfit
        grid = Grid(256)
        beta = 0.4
        d_left = 1.0 + grid.nodes
        d_right = 1.0 - grid.nodes
        u = 3.0 * d_left**beta - 2.0 * d_left ** (2 * beta)
        (left, _), (left_residual, _) = one_fit(u, grid, beta)
        assert left == pytest.approx(3.0, rel=1e-10)
        assert left_residual < 1e-10
        v = 0.5 * d_right**beta + 1.5 * d_right ** (2 * beta)
        (_, right), (_, right_residual) = one_fit(v, grid, beta)
        assert right == pytest.approx(0.5, rel=1e-10)
        assert right_residual < 1e-10

    def test_odd_profile_gives_opposite_signs(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 2)
        # the second eigenfunction is odd: its boundary coefficients match
        # up to sign
        (left, right), _ = one_fit(spectrum.vectors[:, 1], spectrum.grid, 0.5)
        assert left == pytest.approx(-right, rel=1e-10)

    def test_complex_linearity(self):
        grid = Grid(256)
        u = RNG.standard_normal(256)
        v = RNG.standard_normal(256)
        cu, _ = one_fit(u, grid, 0.6)
        cv, _ = one_fit(v, grid, 0.6)
        cw, _ = one_fit(u + 2.0j * v, grid, 0.6)
        np.testing.assert_allclose(cw, cu + 2.0j * cv, rtol=1e-12)

    def test_real_input_gives_real_coefficients(self):
        grid = Grid(256)
        coefficients, residuals = one_fit(RNG.standard_normal(256), grid, 0.5)
        assert coefficients.dtype == residuals.dtype == np.float64

    def test_too_coarse_grid_rejected(self):
        # the layer needs max(8, n // 64) nodes plus two skipped per side
        with pytest.raises(ValueError, match="too coarse"):
            one_fit(np.ones(16), Grid(16), 0.5)


class TestLayerFit:
    @pytest.mark.parametrize("beta,n", [(0.3, 256), (0.5, 512), (0.75, 512), (1.0, 512)])
    def test_block_fit_matches_column_fits(self, get_spectrum, beta, n):
        # the trajectory identity fits all modes at once, the eigenfunction
        # identity one mode at a time; both must read the same traces
        spectrum = get_spectrum(beta, n, 12)
        phi = spectrum.vectors[:, :12]
        coefficients, residuals = _layer_fit(phi, spectrum.grid, beta)
        assert coefficients.shape == residuals.shape == (2, 12)
        for k in range(12):
            c, r = _layer_fit(phi[:, k : k + 1], spectrum.grid, beta)
            np.testing.assert_allclose(coefficients[:, k], c[:, 0], rtol=1e-14, atol=0.0)
            # a residual is already relative to the column norm, so its
            # rounding is absolute: the misfit cancels most of the layer
            np.testing.assert_allclose(residuals[:, k], r[:, 0], rtol=0.0, atol=1e-14)

    def test_zero_column_has_zero_residual(self):
        coefficients, residuals = _layer_fit(np.zeros((256, 2)), Grid(256), 0.5)
        assert not coefficients.any() and not residuals.any()


class TestEigenPohozaev:
    def test_classical_ground_state(self, get_spectrum):
        # at beta = 1 the identity reads d_-^2 + d_+^2 = 2 lambda_1, which
        # for the half-period sine is pi^2 / 2
        check = eigen_pohozaev_check(get_spectrum(1.0, 512, 2), 1)
        assert check.rhs == pytest.approx(np.pi**2 / 2.0, rel=1e-4)
        assert check.residual < 1e-3
        assert check.lhs == pytest.approx(check.rhs, rel=1e-3)

    @pytest.mark.parametrize(
        "beta,mode,expected",
        [
            (0.5, 1, 0.0753),
            (0.5, 2, 0.0626),
            (0.75, 1, 0.0584),
            (0.75, 2, 0.0546),
        ],
    )
    def test_fractional_residuals_frozen(self, get_spectrum, beta, mode, expected):
        check = eigen_pohozaev_check(get_spectrum(beta, 512, 4), mode)
        assert check.residual == pytest.approx(expected, abs=5e-3)
        assert check.residual < 0.10

    def test_residual_decreases_under_refinement(self, get_spectrum):
        coarse = eigen_pohozaev_check(get_spectrum(0.5, 512, 2), 1)
        fine = eigen_pohozaev_check(get_spectrum(0.5, 1024, 2), 1)
        assert fine.residual < coarse.residual

    def test_target_formula(self, get_spectrum):
        spectrum = get_spectrum(0.6, 256, 3)
        check = eigen_pohozaev_check(spectrum, 3)
        gamma = math.gamma(1.6)
        assert check.rhs == pytest.approx(
            2.0 * 0.6 * spectrum.eigenvalues[2] / gamma**2, rel=1e-14
        )

    def test_mode_validation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 3)
        with pytest.raises(ValueError):
            eigen_pohozaev_check(spectrum, 0)
        with pytest.raises(ValueError):
            eigen_pohozaev_check(spectrum, spectrum.modes + 1)


class TestTrajectoryReport:
    def test_single_mode_static_density(self, get_spectrum):
        # one mode only rotates its phase, so the boundary density is
        # constant in time, the virial difference cancels, and the trace
        # integral is exactly T times the static one
        spectrum = get_spectrum(0.5, 512, 3)
        state = ModalState(
            coefficients=np.array([0.0, 0.0, 1.0]), spectrum=spectrum
        )
        report = schrodinger_pohozaev_report(state, 1.0)
        scale = max(abs(report.lhs), abs(report.rhs))
        assert abs(report.cross_term) <= 1e-10 * scale
        check = eigen_pohozaev_check(spectrum, 3)
        gamma = math.gamma(1.5)
        assert report.lhs == pytest.approx(gamma**2 * check.lhs * 1.0, rel=1e-12)
        assert report.residual == pytest.approx(check.residual, abs=1e-10)

    def test_opposite_parity_pair_has_no_cross_term(self, get_spectrum):
        # modes 1 and 2 have opposite parity, so the virial pairing
        # integrates an odd function and cancels identically
        spectrum = get_spectrum(0.5, 512, 3)
        state = ModalState(
            coefficients=np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0),
            spectrum=spectrum,
        )
        report = schrodinger_pohozaev_report(state, 1.0)
        scale = max(abs(report.lhs), abs(report.rhs))
        assert abs(report.cross_term) <= 1e-12 * scale
        assert report.residual < 0.10

    def test_same_parity_pair_exercises_cross_term(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 3)
        state = ModalState(
            coefficients=np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0),
            spectrum=spectrum,
        )
        report = schrodinger_pohozaev_report(state, 1.0)
        assert abs(report.cross_term) > 0.1
        assert report.residual < 0.10
        assert report.rhs == pytest.approx(
            report.dirichlet_term + report.cross_term, rel=1e-12
        )

    def test_zero_state_reports_zero(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 3)
        state = ModalState(coefficients=np.zeros(3), spectrum=spectrum)
        report = schrodinger_pohozaev_report(state, 1.0)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.residual == 0.0

    def test_trace_integral_matches_fine_simpson_reference(self, get_spectrum):
        # independent reference: the boundary traces d(t) of the flow, from
        # per-mode layer fits, sampled on 2^15 + 1 uniform times and
        # integrated by composite Simpson, whose order-4 error is ~1e-12 here
        beta, K, T, intervals = 0.75, 40, 4.0, 2**15
        spectrum = get_spectrum(beta, 1024, K)
        rng = np.random.default_rng(75)
        a = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        state = ModalState(coefficients=a, spectrum=spectrum)
        traces = np.column_stack([one_fit(spectrum.vectors[:, k], spectrum.grid, beta)[0] for k in range(K)])
        times = np.linspace(0.0, T, intervals + 1)
        flow = np.exp(1j * np.outer(times, spectrum.eigenvalues[:K])) * a
        density = sum(np.abs(flow @ side) ** 2 for side in traces)
        w = np.ones(intervals + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        reference = T / (3.0 * intervals) * float(w @ density)
        report = schrodinger_pohozaev_report(state, T)
        assert report.trace_integral == pytest.approx(reference, rel=1e-10)

    def test_validation(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 3)
        state = ModalState(coefficients=np.ones(3), spectrum=spectrum)
        with pytest.raises(ValueError):
            schrodinger_pohozaev_report(state, 0.0)


class TestTwoSidedEstimate:
    def test_single_mode_analytic_ratio(self, get_spectrum):
        spectrum = get_spectrum(0.5, 1024, 2)
        state = ModalState(
            coefficients=np.array([1.0, 0.0]), spectrum=spectrum
        )
        report = schrodinger_pohozaev_report(state, 1.0)
        ratio = two_sided_estimate_ratio(state, report.trace_integral)
        lam = spectrum.eigenvalues[0]
        gamma = math.gamma(1.5)
        analytic = 2.0 * 0.5 * 1.0 * lam / (gamma**2 * (1.0 + lam))
        assert ratio == pytest.approx(analytic, rel=0.08)

    def test_ratio_scales_linearly_in_horizon(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 2)
        state = ModalState(
            coefficients=np.array([1.0, 0.0]), spectrum=spectrum
        )
        short, long = (
            two_sided_estimate_ratio(state, schrodinger_pohozaev_report(state, T).trace_integral)
            for T in (1.0, 2.0)
        )
        assert long == pytest.approx(2.0 * short, rel=1e-10)

    def test_datum_energy_field(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 2)
        state = ModalState(
            coefficients=np.array([2.0, 1.0j]), spectrum=spectrum
        )
        lam = spectrum.eigenvalues[:2]
        energy = 4.0 * (1.0 + lam[0]) + 1.0 * (1.0 + lam[1])
        assert two_sided_estimate_ratio(state, 3.0) == pytest.approx(3.0 / energy, rel=1e-12)

    def test_zero_energy_rejected(self, get_spectrum):
        spectrum = get_spectrum(0.5, 512, 2)
        state = ModalState(coefficients=np.zeros(2), spectrum=spectrum)
        with pytest.raises(ValueError):
            two_sided_estimate_ratio(state, 1.0)
