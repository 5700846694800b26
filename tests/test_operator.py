"""Discretized fractional Laplacian: weights, assembly, FFT apply, symbol."""

import math

import numpy as np
import pytest
import scipy.special

from fraclab import Grid, assemble_operator, centered_difference_weights
from fraclab.operator import DiscreteOperator, apply, check_order, symbol


def closed_form_weights(beta, count):
    # reflection form: g_j = -Gamma(2b+1) sin(pi b)/pi * Gamma(j-b)/Gamma(j+b+1)
    # for j >= 2, evaluated in log space so large j neither over- nor underflows
    g = np.empty(count)
    g[0] = math.gamma(2 * beta + 1) / math.gamma(beta + 1) ** 2
    if count > 1:
        g[1] = -math.gamma(2 * beta + 1) / (math.gamma(beta) * math.gamma(beta + 2))
    if count > 2:
        j = np.arange(2, count, dtype=float)
        prefactor = math.gamma(2 * beta + 1) * math.sin(math.pi * beta) / math.pi
        g[2:] = -prefactor * np.exp(scipy.special.gammaln(j - beta) - scipy.special.gammaln(j + beta + 1))
    return g


class TestWeights:
    def test_half_order_closed_values(self):
        g = centered_difference_weights(0.5, 3)
        assert g[0] == pytest.approx(4.0 / math.pi, rel=1e-15)
        assert g[1] == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-15)
        assert g[2] == pytest.approx(-4.0 / (15.0 * math.pi), rel=1e-15)

    def test_classical_limit_is_three_point_stencil(self):
        g = centered_difference_weights(1.0, 6)
        assert g[0] == pytest.approx(2.0, abs=1e-14)
        assert g[1] == pytest.approx(-1.0, abs=1e-14)
        assert np.max(np.abs(g[2:])) < 1e-13

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_recurrence_matches_gamma_closed_form(self, beta):
        # The log-gamma route loses a few digits by j ~ 2000 (the exponent
        # carries an absolute error of order eps * |gammaln|), so the bound
        # reflects the oracle's own accuracy, not the recurrence's.
        count = 2000
        got = centered_difference_weights(beta, count)
        want = closed_form_weights(beta, count)
        scale = np.maximum(np.abs(want), 1e-300)
        assert np.max(np.abs(got - want) / scale) < 1e-10

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.8])
    def test_row_sum_vanishes(self, beta):
        # The symbol vanishes at theta = 0, so g_0 + 2 sum g_j -> 0.  The
        # truncated tail behaves like |g_J| * J / (2 beta) ~ J^(-2 beta), so
        # the admissible residual depends strongly on the order.
        count = 200_000
        g = centered_difference_weights(beta, count)
        total = g[0] + 2.0 * np.sum(g[1:])
        tail_bound = abs(g[-1]) * count / (2.0 * beta)
        assert abs(total) < 2.0 * tail_bound
        assert tail_bound < 5e-3

    def test_tail_sign_and_decay(self):
        g = centered_difference_weights(0.6, 500)
        assert np.all(g[1:] < 0.0)
        assert np.all(np.diff(np.abs(g[1:])) < 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5, float("nan")])
    def test_order_validation(self, bad):
        with pytest.raises(ValueError):
            check_order(bad)


class TestGrid:
    def test_geometry(self):
        g = Grid(9)
        assert g.h == pytest.approx(0.2)
        assert g.nodes[0] == pytest.approx(-0.8)
        assert g.nodes[-1] == pytest.approx(0.8)
        assert len(g.nodes) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0)


class TestAssembly:
    def test_classical_matrix_is_tridiagonal(self):
        g = Grid(8)
        op = assemble_operator(g, 1.0)
        dense = op.dense
        scale = g.h**-2
        assert np.allclose(np.diag(dense), 2.0 * scale, rtol=1e-14)
        assert np.allclose(np.diag(dense, 1), -scale, rtol=1e-14)
        assert np.max(np.abs(np.triu(dense, 2))) < 1e-10 * scale

    def test_symmetry(self):
        op = assemble_operator(Grid(64), 0.4)
        assert np.array_equal(op.dense, op.dense.T)

    def test_norm_bound_value(self):
        g = Grid(127)
        op = assemble_operator(g, 0.7)
        assert op.norm_bound == pytest.approx(g.h ** (-1.4) * 2.0**1.4, rel=1e-14)


class TestApply:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 127, 511, 512, 1000])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
    def test_fft_path_matches_dense(self, n, beta):
        rng = np.random.default_rng(n)
        op = assemble_operator(Grid(n), beta)
        real = rng.standard_normal(n)
        for u in (real, real + 1j * rng.standard_normal(n)):
            direct = op.dense @ u
            fast = apply(op, u)
            assert np.iscomplexobj(fast) == np.iscomplexobj(u)
            assert np.max(np.abs(direct - fast)) < 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_complex_input(self):
        op = assemble_operator(Grid(200), 0.5)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        fast = apply(op, u)
        assert np.iscomplexobj(fast)
        assert np.max(np.abs(fast - op.dense @ u)) < 1e-11 * np.max(np.abs(u)) * op.norm_bound

    @pytest.mark.parametrize("beta", [0.35, 0.6, 1.0])
    def test_operator_norm_bound(self, beta):
        op = assemble_operator(Grid(300), beta)
        rng = np.random.default_rng(7)
        for _ in range(15):
            u = rng.standard_normal(300)
            assert np.linalg.norm(apply(op, u)) <= op.norm_bound * np.linalg.norm(u) * (1 + 1e-12)

    def test_positivity_of_quadratic_form(self):
        op = assemble_operator(Grid(150), 0.5)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.standard_normal(150)
            assert op.grid.h * u @ (op.dense @ u) > 0.0


class TestSymbol:
    def test_closed_form(self):
        assert symbol(0.5, math.pi) == pytest.approx(2.0, rel=1e-14)
        assert symbol(1.0, math.pi / 2) == pytest.approx(2.0, rel=1e-14)
        assert symbol(0.3, 0.0) == 0.0

    @pytest.mark.parametrize(
        "beta,tol",
        [(0.3, 5e-3), (0.5, 2e-3), (0.75, 5e-4), (1.0, 1e-10)],
    )
    def test_apply_acts_as_multiplier_mid_domain(self, beta, tol):
        # a plane wave far from the boundary sees the generating symbol;
        # the zero-exterior truncation contributes only the weight tail
        n, xi = 2048, 16.0
        g = Grid(n)
        op = assemble_operator(g, beta)
        u = np.exp(1j * xi * g.nodes)
        v = apply(op, u)
        expected = g.h ** (-2 * beta) * symbol(beta, g.h * xi)
        assert abs(v[n // 2] / u[n // 2] - expected) / expected < tol

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.75])
    def test_symbol_converges_to_fractional_power_at_second_order(self, beta):
        xi = 3.0
        errors = []
        sizes = (256, 512, 1024, 2048)
        for n in sizes:
            h = 2.0 / (n + 1)
            errors.append(abs(h ** (-2 * beta) * symbol(beta, h * xi) - xi ** (2 * beta)))
        for i in range(len(sizes) - 1):
            h0, h1 = 2.0 / (sizes[i] + 1), 2.0 / (sizes[i + 1] + 1)
            rate = math.log(errors[i] / errors[i + 1]) / math.log(h0 / h1)
            assert rate > 1.9

    def test_half_laplacian_of_narrow_gaussian(self):
        # scaling invariance gives the center value sqrt(a) * 2/sqrt(pi)
        n = 2048
        g = Grid(n)
        op = assemble_operator(g, 0.5)
        u = np.exp(-16.0 * g.nodes**2)
        target = 4.0 * 2.0 / math.sqrt(math.pi)
        got = apply(op, u)[n // 2]
        assert abs(got - target) / target < 1e-4


class TestDataclassContracts:
    def test_operator_is_frozen(self):
        op = assemble_operator(Grid(10), 0.5)
        with pytest.raises(AttributeError):
            op.beta = 0.7

    def test_first_row_length_matches_grid(self):
        op = assemble_operator(Grid(33), 0.25)
        assert isinstance(op, DiscreteOperator)
        assert len(op.first_row) == 33
