import numpy as np
import pytest

from stochsem.assembly import assemble, evaluate_grid
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh, element_basis_table

from conftest import ref_dof_map

UNIT = (0.0, 1.0, 0.0, 1.0)


class TestBuild:
    @pytest.mark.parametrize("order", [2, 4, 7, 10])
    def test_single_element_counts(self, order):
        m = build_mesh(UNIT, 1, 1, order)
        assert m.n_global == (order - 1) ** 2

    def test_two_by_one_order_two(self):
        # hand count: 1 interface hat x 1 interior y-mode + 2 element modes
        m = build_mesh(UNIT, 2, 1, 2)
        assert m.n_global == 3

    @pytest.mark.parametrize("nex,ney,order", [(2, 2, 4), (3, 2, 5), (1, 4, 3)])
    def test_general_counts(self, nex, ney, order):
        m = build_mesh(UNIT, nex, ney, order)
        per = lambda ne: ne * (order - 1) + ne - 1
        assert m.n_global == per(nex) * per(ney)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="no area"):
            build_mesh((0, 0, 0, 1), 1, 1, 4)
        with pytest.raises(ValueError, match="no area"):
            build_mesh((0, 1, 2, 1), 1, 1, 4)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(UNIT, 0, 1, 4)
        with pytest.raises(ValueError):
            build_mesh(UNIT, 1, 1, 1)

    def test_dof_map_surjective(self):
        # every 1D dof belongs to some element, along either axis
        m = build_mesh(UNIT, 3, 2, 4)
        for axis in (m.ax, m.ay):
            g = axis.local_to_global
            assert set(g[g >= 0].ravel()) == set(range(axis.n_dofs))

    @pytest.mark.parametrize("ne,order,numbering", [
        (3, 3, [[-1, 0, 1, 2], [2, 3, 4, 5], [5, 6, 7, -1]]),
        (1, 4, [[-1, 0, 1, 2, -1]])])
    def test_axis_numbering(self, ne, order, numbering):
        # left to right: an element's modes, then the hat it shares with the
        # next element; the boundary hats are -1
        m = build_mesh(UNIT, ne, ne, order)
        assert np.array_equal(m.ax.local_to_global, numbering)
        assert m.ax.n_dofs == np.max(numbering) + 1

    def test_shared_interface_dofs_identical(self):
        # the right hat of element 0 and the left hat of element 1 along x
        # are the same global 1D dof
        order = 4
        m = build_mesh(UNIT, 2, 1, order)
        g = m.ax.local_to_global
        assert g[0, order] == g[1, 0] >= 0


class TestLocate:
    def test_element_center(self):
        m = build_mesh(UNIT, 2, 2, 3)
        (ex,), (X,) = m.ax.locate_points(np.array([0.25]))
        (ey,), (Y,) = m.ay.locate_points(np.array([0.75]))
        assert m.element_index(ex, ey) == m.element_index(0, 1)
        assert (X, Y) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_domain_corner(self):
        m = build_mesh(UNIT, 2, 2, 3)
        for axis in (m.ax, m.ay):
            e, X = axis.locate_points(np.array([0.0, 1.0]))
            assert list(e) == [0, 1]
            assert list(X) == [-1.0, 1.0]

    def test_shared_edge_lower_element(self):
        m = build_mesh(UNIT, 2, 1, 3)
        (e,), (X,) = m.ax.locate_points(np.array([0.5]))
        assert e == 0
        assert X == pytest.approx(1.0, abs=1e-14)

    def test_outside_domain(self):
        m = build_mesh(UNIT, 1, 1, 3)
        with pytest.raises(ValueError, match="outside"):
            m.ax.locate_points(np.array([0.5, 1.5]))


class TestContinuity:
    def test_hat_partition_of_unity(self, rng):
        b = make_basis(6)
        pts = rng.uniform(-1, 1, 20)
        V, _ = element_basis_table(b, pts)
        assert np.allclose(V[0] + V[-1], 1.0, atol=1e-14)

    def test_c0_across_interfaces(self, rng):
        # evaluating a random global vector from either side of an interior
        # edge gives the same values
        order = 5
        m = build_mesh(UNIT, 2, 2, order)
        b = make_basis(order)
        coeffs = rng.standard_normal(m.n_global)
        nloc = order + 1
        dof_map = ref_dof_map(m)
        ys = rng.uniform(-1, 1, 7)
        V_edge_right, _ = element_basis_table(b, np.array([1.0]))
        V_edge_left, _ = element_basis_table(b, np.array([-1.0]))
        Vy, _ = element_basis_table(b, ys)
        for ey in range(2):
            eL = m.element_index(0, ey)
            eR = m.element_index(1, ey)
            cL = np.where(dof_map[eL] >= 0,
                          coeffs[np.clip(dof_map[eL], 0, None)], 0.0).reshape(nloc, nloc)
            cR = np.where(dof_map[eR] >= 0,
                          coeffs[np.clip(dof_map[eR], 0, None)], 0.0).reshape(nloc, nloc)
            from_left = V_edge_right[:, 0] @ cL @ Vy
            from_right = V_edge_left[:, 0] @ cR @ Vy
            assert np.max(np.abs(from_left - from_right)) <= 1e-12

    def test_boundary_values_vanish(self, rng):
        m = build_mesh(UNIT, 2, 2, 4)
        b = make_basis(4)
        coeffs = rng.standard_normal(m.n_global)
        inner = [0.3, 0.7, 0.4, 0.6]
        for xs, ys in (([0.0, 1.0], inner), (inner, [0.0, 1.0])):
            vals = evaluate_grid(m, b, coeffs, xs, ys)
            assert np.max(np.abs(vals)) <= 1e-12


class TestStiffnessSPD:
    @pytest.mark.parametrize("order", [3, 4])
    def test_global_stiffness_spd(self, order):
        m = build_mesh(UNIT, 2, 2, order)
        b = make_basis(order)
        K = assemble(m, b, 1.0, "diffusion").toarray()
        assert np.max(np.abs(K - K.T)) <= 1e-12
        eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eigs.min() > 0
