import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre

from stochsem.assembly import Quadrature2D
from stochsem.basis import gauss_rule, legendre_table, make_basis, shen_table
from stochsem.mesh import build_mesh

from conftest import quad_gram, shen_poly


def axis_matrices(order: int):
    """The scheme's x-axis mass and stiffness matrices on one element of
    length 2, i.e. the reference-interval matrices."""
    quad = Quadrature2D(build_mesh((0.0, 2.0, 0.0, 1.0), 1, 1, order), make_basis(order))
    (M, K, _), _ = quad.axis_matrices()
    return M, K


class TestLegendre:
    def test_examples(self):
        L, _ = legendre_table(2, [0.3, -0.7, 0.5])
        assert L[0, 0] == 1.0
        assert L[1, 1] == -0.7
        # hand evaluation of (3x^2 - 1)/2 at 0.5
        assert L[2, 2] == pytest.approx(-0.125, abs=1e-15)

    def test_orthogonality(self):
        # int L_j L_k = 2 delta_jk / (2k+1) with a rule of max(j,k)+1 points
        for j in range(9):
            for k in range(9):
                x, w = gauss_rule(max(j, k) + 1)
                L, _ = legendre_table(max(j, k), x)
                val = np.sum(w * L[j] * L[k])
                expect = 2.0 / (2 * k + 1) if j == k else 0.0
                assert abs(val - expect) <= 1e-12

    def test_against_numpy_polynomials(self, rng):
        x = rng.uniform(-1, 1, 40)
        L, _ = legendre_table(14, x)
        for k in range(0, 15):
            assert np.allclose(L[k], Legendre.basis(k)(x), rtol=0, atol=1e-13)

    def test_derivative_table(self, rng):
        x = rng.uniform(-1, 1, 25)
        L, dL = legendre_table(10, x)
        for k in range(11):
            assert np.allclose(dL[k], Legendre.basis(k).deriv()(x),
                               rtol=0, atol=1e-11)


class TestGaussRule:
    def test_one_point(self):
        nodes, weights = gauss_rule(1)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_monomial(self):
        nodes, weights = gauss_rule(2)
        assert np.sum(weights * nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weights_sum(self, n):
        _, weights = gauss_rule(n)
        assert np.sum(weights) == pytest.approx(2.0, abs=1e-13)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            gauss_rule(0)


class TestShenBasis:
    def test_boundary_vanishing(self):
        for order in (2, 5, 9, 12):
            P, _ = shen_table(make_basis(order), [-1.0, 1.0])
            assert np.max(np.abs(P)) <= 1e-14

    def test_mode_one_value(self):
        # gamma_1 (L_1 - L_3) at 0.25, with L_3 = (5x^3 - 3x)/2 by hand
        b = make_basis(6)
        x = 0.25
        expect = (1.0 / np.sqrt(10.0)) * (x - (5 * x**3 - 3 * x) / 2.0)
        assert shen_table(b, x)[0][1, 0] == pytest.approx(expect, abs=1e-15)

    def test_matches_polynomial_oracle(self, rng):
        b = make_basis(10)
        x = rng.uniform(-1, 1, 30)
        P, dP = shen_table(b, x)
        for k in range(9):
            p = shen_poly(k)
            assert np.allclose(P[k], p(x), rtol=0, atol=1e-13)
            assert np.allclose(dP[k], p.deriv()(x), rtol=0, atol=1e-12)

    def test_table_consistent(self, rng):
        # a table over many points equals the tables of its points one by one
        b = make_basis(8)
        x = rng.uniform(-1, 1, 11)
        P, dP = shen_table(b, x)
        for i, xi in enumerate(x):
            Pi, dPi = shen_table(b, xi)
            assert np.allclose(P[:, i], Pi[:, 0], rtol=0, atol=1e-14)
            assert np.allclose(dP[:, i], dPi[:, 0], rtol=0, atol=1e-14)

    def test_gamma_positive_decreasing(self):
        b = make_basis(12)
        assert np.all(b.gamma > 0)
        assert np.all(np.diff(b.gamma) < 0)

    def test_quadrature_count_floor(self):
        # N + 2 Gauss points integrate every product of two modes exactly
        for order in (2, 6, 12):
            b = make_basis(order)
            nodes, weights = gauss_rule(order + 2)
            assert b.n_quad == order + 2
            assert np.array_equal(b.quad_nodes, nodes)
            assert np.array_equal(b.quad_weights, weights)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            make_basis(1)


class TestElementMatrices:
    """The per-axis matrices the scheme runs, on one reference-length element."""

    def test_stiffness_is_identity_n4(self):
        _, K = axis_matrices(4)
        assert np.max(np.abs(K - np.eye(3))) <= 1e-14

    @pytest.mark.parametrize("order", range(2, 13))
    def test_stiffness_vs_quadrature_oracle(self, order):
        _, K = axis_matrices(order)
        oracle = quad_gram(order, deriv=True)
        assert np.max(np.abs(K - oracle)) <= 1e-12

    def test_mass_first_diagonal_entry(self):
        # gamma_0^2 (2 + 2/5) = 0.4 by hand
        M, _ = axis_matrices(5)
        assert M[0, 0] == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("order", range(2, 13))
    def test_mass_vs_quadrature_oracle(self, order):
        M, _ = axis_matrices(order)
        oracle = quad_gram(order, deriv=False)
        assert np.max(np.abs(M - oracle)) <= 1e-12

    def test_mass_band_structure(self):
        # offsets other than 0, +-2 hold only quadrature roundoff
        M, _ = axis_matrices(12)
        j, k = np.indices(M.shape)
        off_band = ~np.isin(np.abs(j - k), (0, 2))
        assert np.max(np.abs(M[off_band])) <= 1e-14
        assert np.min(np.abs(M[~off_band])) > 1e-3
        assert np.array_equal(M, M.T)
