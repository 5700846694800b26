"""Eigenpair computation, the asymptotic law, gaps, and spectral diagnostics."""

import math

import numpy as np
import pytest

from fraclab import (
    Grid,
    Spectrum,
    assemble_operator,
    asymptotic_eigenvalue,
    compute_spectrum,
    gap_sequence,
    trace_summability,
)


class TestComputeSpectrum:
    def test_classical_eigenpairs_exact(self):
        # At beta = 1 the matrix is the standard second-difference stencil
        # whose eigenpairs are known in closed form.
        n = 63
        op = assemble_operator(Grid(n), 1.0)
        spectrum = compute_spectrum(op, 12)
        k = np.arange(1, 13)
        lam_exact = (2.0 / op.grid.h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))
        np.testing.assert_allclose(spectrum.eigenvalues, lam_exact, rtol=1e-12)
        i = np.arange(1, n + 1)[:, None]
        phi_exact = np.sin(i * k[None, :] * np.pi / (n + 1))
        np.testing.assert_allclose(spectrum.vectors, phi_exact, atol=1e-9)

    def test_discrete_orthonormality(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 12)
        gram = spectrum.h * spectrum.vectors.T @ spectrum.vectors
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-12)

    def test_sign_convention_first_node_nonnegative(self, get_spectrum):
        spectrum = get_spectrum(0.3, 256, 12)
        assert np.all(spectrum.vectors[0, :] > 0.0)

    def test_eigenvalues_sorted_positive(self, get_spectrum):
        spectrum = get_spectrum(0.75, 256, 12)
        assert np.all(spectrum.eigenvalues > 0.0)
        assert np.all(np.diff(spectrum.eigenvalues) > 0.0)

    def test_residuals_small(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 8)
        op = assemble_operator(Grid(256), 0.5)
        # compute_spectrum works with the h-scaled orthonormal vectors; the
        # residual of the returned pairs inherits that accuracy.
        res = op.dense @ spectrum.vectors - spectrum.vectors * spectrum.eigenvalues
        assert np.max(np.abs(res)) < 1e-9 * op.norm_bound

    def test_ground_state_half_order_frozen(self, get_spectrum):
        spectrum = get_spectrum(0.5, 2048, 12)
        lam1 = spectrum.eigenvalues[0]
        assert lam1 == pytest.approx(1.1580559738591525, rel=1e-10)
        assert 1.13 < lam1 < 1.18

    def test_mode_ten_tracks_asymptotic_law(self, get_spectrum):
        spectrum = get_spectrum(0.5, 2048, 12)
        lam10 = spectrum.eigenvalues[9]
        assert lam10 == pytest.approx(15.31909632799616, rel=1e-10)
        law = asymptotic_eigenvalue(0.5, 10)
        assert abs(lam10 - law) / law < 0.02

    def test_theta_vectors_scaling(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 6)
        theta = spectrum.theta_vectors()
        expected = spectrum.vectors / np.sqrt(1.0 + spectrum.eigenvalues)
        np.testing.assert_allclose(theta, expected, rtol=1e-15)
        # energy normalization: (1 + lambda) * h * sum theta^2 = 1
        energy = (1.0 + spectrum.eigenvalues) * spectrum.h * np.sum(theta**2, axis=0)
        np.testing.assert_allclose(energy, 1.0, rtol=1e-12)

    def test_no_ties_for_simple_spectrum(self, get_spectrum):
        assert get_spectrum(0.5, 256, 12).ties == ()

    def test_modes_validation(self):
        op = assemble_operator(Grid(16), 0.5)
        with pytest.raises(ValueError):
            compute_spectrum(op, 0)
        with pytest.raises(ValueError):
            compute_spectrum(op, 17)
        with pytest.raises(TypeError):
            compute_spectrum(np.eye(4), 2)


class TestAsymptoticLaw:
    def test_frozen_values(self):
        assert asymptotic_eigenvalue(0.25, 10) == pytest.approx(
            3.8883048549979824, rel=1e-15
        )
        assert asymptotic_eigenvalue(0.25, 11) == pytest.approx(
            4.085304269230845, rel=1e-15
        )
        assert asymptotic_eigenvalue(0.5, 1) == pytest.approx(
            3.0 * math.pi / 8.0, rel=1e-15
        )
        assert asymptotic_eigenvalue(1.0, 3) == pytest.approx(
            22.206609902451056, rel=1e-15
        )

    def test_vectorized_matches_scalar(self):
        ks = np.arange(1, 9)
        vec = asymptotic_eigenvalue(0.6, ks)
        assert vec.shape == (8,)
        for k in ks:
            assert vec[k - 1] == pytest.approx(asymptotic_eigenvalue(0.6, int(k)))

    def test_classical_limit_is_quadratic(self):
        # at beta = 1 the law reduces to (k pi / 2)^2
        for k in (1, 2, 5):
            assert asymptotic_eigenvalue(1.0, k) == pytest.approx(
                (k * math.pi / 2.0) ** 2, rel=1e-15
            )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            asymptotic_eigenvalue(0.5, 0)


class TestGapSequence:
    def test_asymptotic_half_order_gap_is_constant(self):
        report = gap_sequence(0.5, 12)
        assert report.source == "asymptotic"
        assert report.verdict == "uniform-gap"
        np.testing.assert_allclose(report.gaps, math.pi / 2.0, atol=1e-12)
        assert report.inf_gap_estimate == pytest.approx(math.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "beta,verdict",
        [
            (0.25, "vanishing-gap"),
            (0.4, "vanishing-gap"),
            (0.5, "uniform-gap"),
            (0.6, "uniform-gap"),
            (1.0, "uniform-gap"),
        ],
    )
    def test_asymptotic_dichotomy(self, beta, verdict):
        assert gap_sequence(beta, 20).verdict == verdict

    def test_asymptotic_gap_frozen_value(self):
        report = gap_sequence(0.25, 11)
        assert report.gaps[-1] == pytest.approx(0.19699941423286305, rel=1e-14)

    @pytest.mark.parametrize(
        "beta,verdict",
        [(0.4, "vanishing-gap"), (0.5, "uniform-gap"), (0.6, "uniform-gap")],
    )
    def test_numeric_dichotomy(self, get_spectrum, beta, verdict):
        spectrum = get_spectrum(beta, 2048, 10)
        report = gap_sequence(spectrum, 10)
        assert report.source == "numeric"
        assert report.verdict == verdict
        assert report.slope is not None

    def test_numeric_slopes_frozen(self, get_spectrum):
        slopes = {
            beta: gap_sequence(get_spectrum(beta, 2048, 10), 10).slope
            for beta in (0.4, 0.5, 0.6)
        }
        assert slopes[0.4] == pytest.approx(-0.196, abs=5e-3)
        assert slopes[0.5] == pytest.approx(-0.0045, abs=5e-3)
        assert slopes[0.6] == pytest.approx(0.18, abs=5e-3)

    def test_numeric_report_carries_ties(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 8)
        assert gap_sequence(spectrum, 8).ties == spectrum.ties

    def test_validation(self, get_spectrum):
        with pytest.raises(ValueError):
            gap_sequence(0.5, 1)
        spectrum = get_spectrum(0.5, 256, 8)
        with pytest.raises(ValueError):
            gap_sequence(spectrum, spectrum.modes + 1)


class TestTraceSummability:
    def test_convergence_threshold(self):
        # converges exactly when 2 * beta * d > 1
        assert trace_summability(0.75, 1).converges is True
        assert trace_summability(0.3, 1).converges is False
        assert trace_summability(0.3, 2).converges is True
        # the borderline case diverges
        edge = trace_summability(0.5, 1)
        assert edge.converges is False
        assert edge.decay_product == pytest.approx(1.0)
        assert math.isinf(edge.tail_estimate)

    def test_convergent_tail_frozen(self):
        report = trace_summability(0.75, 1)
        assert report.decay_product == pytest.approx(1.5)
        assert report.tail_estimate == pytest.approx(0.0321, rel=2e-2)
        assert np.all(np.diff(report.partial_sums) > 0.0)

    def test_spectrum_source(self, get_spectrum):
        spectrum = get_spectrum(0.75, 256, 12)
        report = trace_summability(spectrum, 1)
        assert report.converges is True
        assert len(report.partial_sums) == spectrum.modes
        assert report.partial_sums[0] == pytest.approx(
            1.0 / spectrum.eigenvalues[0], rel=1e-12
        )

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            trace_summability(0.5, 0.0)
        with pytest.raises(ValueError):
            trace_summability(0.5, -1.0)
