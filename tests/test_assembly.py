import dataclasses
import re

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve

from stochsem.assembly import (L2Projector, Quadrature2D, StateVector, _axis_eval_matrix,
                               _axis_pairs, assemble, evaluate_grid, load_from_values,
                               load_vector, values_at_quad)
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh, element_basis_table
from stochsem.model import ModelSpec, const_field
from stochsem.model import test1_spec as make_test1
from stochsem.timestepper import StateBatch, build_scheme, step

from conftest import ref_dof_map, ref_mass_1d

UNIT = (0.0, 1.0, 0.0, 1.0)


def ones(x, y):
    return np.ones(np.broadcast(x, y).shape)


def disc(nex=1, ney=1, order=8, domain=UNIT):
    m = build_mesh(domain, nex, ney, order)
    return m, make_basis(order)


def project(m, b, field):
    return L2Projector(m, b).project(field)


def gradient_at_quad(quad, c):
    """Gradient components in per-element layout (n_el, nq, nq), element
    ey * nex + ex first."""
    m, nq = quad.mesh, quad.basis.n_quad
    return tuple(G.reshape(m.nex, nq, m.ney, nq).transpose(2, 0, 1, 3)
                 .reshape(m.n_elements, nq, nq)
                 for G in (quad.values(c, dx=1), quad.values(c, dy=1)))


class TestAssemble:
    def test_single_element_diffusion_closed_form(self):
        # interior block on one unit-square element: J-scaled (I x B + B x I)
        # with stiffness = identity and B the 1D reference mass matrix
        order = 6
        m, b = disc(order=order)
        K = assemble(m, b, 1.0, "diffusion").toarray()
        B = ref_mass_1d(order)
        eye = np.eye(order - 1)
        oracle = np.kron(eye, B) + np.kron(B, eye)   # hy/hx = hx/hy = 1
        assert np.max(np.abs(K - oracle)) <= 1e-12

    def test_scaled_element_diffusion(self):
        # rectangle element hx=2, hy=1: (hy/hx) I x B + (hx/hy) B x I
        order = 5
        m, b = disc(domain=(0, 2, 0, 1), order=order)
        K = assemble(m, b, 1.0, "diffusion").toarray()
        B = ref_mass_1d(order)
        eye = np.eye(order - 1)
        oracle = 0.5 * np.kron(eye, B) + 2.0 * np.kron(B, eye)
        assert np.max(np.abs(K - oracle)) <= 1e-12

    def test_single_element_mass_closed_form(self):
        order = 7
        m, b = disc(order=order)
        M = assemble(m, b, 1.0, "mass").toarray()
        B = ref_mass_1d(order) / 2.0          # jacobian h/2 per direction
        assert np.max(np.abs(M - np.kron(B, B))) <= 1e-12

    def test_zero_coefficient_zero_operator(self):
        m, b = disc(2, 2, 4)
        K = assemble(m, b, 0.0, "diffusion")
        assert K.nnz == 0 or np.max(np.abs(K.toarray())) == 0.0

    def test_advection_is_negated_transpose_of_trial_side(self):
        # independent oracle: derivative-on-trial operator by direct tensor
        # quadrature on a single element (pure interior modes)
        order = 6
        m, b = disc(order=order)
        A = assemble(m, b, 1.0, "advection").toarray()
        from conftest import shen_poly
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(order + 2)
        V = np.array([shen_poly(k)(x) for k in range(order - 1)])
        D = np.array([shen_poly(k).deriv()(x) for k in range(order - 1)])
        C = np.einsum("q,mq,kq->mk", w, V, D)    # int psi_k' psi_m dX
        B = np.einsum("q,mq,kq->mk", w, V, V) / 2.0
        trial_side = np.kron(C, B) + np.kron(B, C)
        assert np.max(np.abs(A - (-trial_side.T))) <= 1e-12

    def test_advection_antisymmetric(self):
        m, b = disc(2, 2, 5)
        A = assemble(m, b, 1.0, "advection").toarray()
        assert np.max(np.abs(A + A.T)) <= 1e-12

    def test_linearity_in_coefficient(self):
        m, b = disc(2, 1, 4)
        c1, c2 = 1.4, -0.3
        alpha, beta = 0.7, -1.3
        got = assemble(m, b, alpha * c1 + beta * c2, "mass").toarray()
        expect = (alpha * assemble(m, b, c1, "mass").toarray()
                  + beta * assemble(m, b, c2, "mass").toarray())
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("nex,ney,order", [(2, 2, 4), (3, 3, 6)])
    def test_diffusion_spd(self, nex, ney, order):
        m, b = disc(nex, ney, order)
        K = assemble(m, b, 1.0, "diffusion").toarray()
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() > 0

    def test_mass_spd_and_symmetric(self):
        m, b = disc(2, 2, 4)
        M = assemble(m, b, 1.0, "mass").toarray()
        assert np.max(np.abs(M - M.T)) <= 1e-13
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0

    def test_element_locality(self):
        # dofs interior to non-adjacent elements never couple
        order = 4
        m, b = disc(2, 2, order)
        M = assemble(m, b, 1.0, "mass").toarray()
        nloc = order + 1
        interior = [ref_dof_map(m)[e].reshape(nloc, nloc)[1:order, 1:order].ravel()
                    for e in range(4)]
        # elements 0 (lower-left) and 3 (upper-right) share no support
        for i in interior[0]:
            for j in interior[3]:
                assert M[i, j] == 0.0

    def test_nonfinite_coefficient_reported(self):
        # coefficients are checked where a ModelSpec is made, before any
        # operator is built: non-finite xi, zeta, r or wp and a negative zeta are
        # rejected by name, and so is a non-finite or non-positive kappa;
        # zeta = 0 (pure transport) stays legal
        spec = make_test1()
        for name in ("xi", "zeta", "r", "wp"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
                    dataclasses.replace(spec, **{name: bad})
        with pytest.raises(ValueError, match="coefficient zeta"):
            dataclasses.replace(spec, zeta=-1.0)
        assert dataclasses.replace(spec, zeta=0.0).zeta == 0.0
        for bad in (np.nan, np.inf, -np.inf, 0.0):
            for kappa in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError, match="kappa constants must be finite"):
                    dataclasses.replace(spec, kappa=kappa)

    def test_unknown_kind(self):
        m, b = disc()
        for kind in ("helmholtz", "reaction"):
            with pytest.raises(ValueError, match="kind"):
                assemble(m, b, 1.0, kind)


class TestLoadVector:
    def test_zero_field(self):
        m, b = disc(2, 2, 4)
        assert np.all(load_vector(m, b, lambda x, y: np.zeros(np.broadcast(x, y).shape)) == 0)

    def test_galerkin_identity(self, rng):
        # load of a global basis function = corresponding mass column
        m, b = disc(2, 1, 5)
        M = assemble(m, b, 1.0, "mass").toarray()
        for j in rng.choice(m.n_global, size=4, replace=False):
            ej = np.zeros(m.n_global)
            ej[j] = 1.0
            field = lambda X, Y: evaluate_grid(m, b, ej, np.ravel(X), np.ravel(Y))
            got = load_vector(m, b, field)
            assert np.max(np.abs(got - M[:, j])) <= 1e-12

    def test_constant_field_pairing(self):
        # pairing of load(c) with the projection of 1 approximates c*|Omega|
        m, b = disc(1, 1, 16)
        c = 2.5
        load = load_vector(m, b, lambda x, y: np.full(np.broadcast(x, y).shape, c))
        one_coeffs = project(m, b, ones)
        assert np.dot(load, one_coeffs) == pytest.approx(c, rel=0.05)   # |Omega| = 1

    def test_time_argument(self):
        m, b = disc(1, 1, 4)
        f = lambda x, y, t: t * np.ones(np.broadcast(x, y).shape)
        assert np.allclose(load_vector(m, b, f, t=2.0),
                           2 * load_vector(m, b, f, t=1.0), atol=1e-15)


class TestEvaluate:
    def test_zero_coefficients(self):
        m, b = disc(2, 2, 4)
        assert np.all(evaluate_grid(m, b, np.zeros(m.n_global), [0.3, 0.9], [0.4, 0.1]) == 0)

    def test_spectral_interpolation(self):
        m, b = disc(1, 1, 12)
        c = project(m, b, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        xs = np.linspace(0, 1, 50)
        vals = evaluate_grid(m, b, c, xs, xs)
        exact = np.sin(np.pi * xs[:, None]) * np.sin(np.pi * xs[None, :])
        assert np.max(np.abs(vals - exact)) <= 1e-8

    def test_grid_matches_pointwise(self, rng):
        m, b = disc(2, 2, 5)
        c = rng.standard_normal(m.n_global)
        xs = rng.uniform(0, 1, 6)
        ys = rng.uniform(0, 1, 5)
        grid = evaluate_grid(m, b, c, xs, ys)
        # per point: its element's local coefficients (gathered through
        # ref_dof_map) contracted with the element tables
        (ex, X), (ey, Y) = m.ax.locate_points(xs), m.ay.locate_points(ys)
        Vx, Vy = element_basis_table(b, X)[0], element_basis_table(b, Y)[0]
        local = ref_gather(m, c)[m.element_index(ex[:, None], ey[None, :])]
        want = np.einsum("mi,ijmn,nj->ij", Vx, local, Vy)
        assert np.allclose(grid, want, rtol=0, atol=1e-12)

    def test_boundary_zero(self, rng):
        m, b = disc(2, 2, 4)
        c = rng.standard_normal(m.n_global)
        xs = np.linspace(0, 1, 11)
        grid = evaluate_grid(m, b, c, xs, xs)
        for edge in (grid[0], grid[-1], grid[:, 0], grid[:, -1]):
            assert np.max(np.abs(edge)) <= 1e-12

    def test_wrong_length_rejected(self):
        m, b = disc()
        with pytest.raises(ValueError, match="length"):
            evaluate_grid(m, b, np.zeros(3), [0.5], [0.5])

    def test_gradient_evaluation(self, rng):
        m, b = disc(2, 2, 8)
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        c = project(m, b, f)
        xs = rng.uniform(0.1, 0.9, 8)
        ys = rng.uniform(0.1, 0.9, 8)
        gx = evaluate_grid(m, b, c, xs, ys, dx=1)
        exact = np.pi * np.cos(np.pi * xs[:, None]) * np.sin(np.pi * ys[None, :])
        assert np.max(np.abs(gx - exact)) <= 1e-5
        quad = Quadrature2D(m, b)
        gxq, gyq = gradient_at_quad(quad, c)
        X = np.stack([quad.xq[ex] for ey in range(2) for ex in range(2)])
        Y = np.stack([quad.yq[ey] for ey in range(2) for ex in range(2)])
        exact_q = np.pi * np.cos(np.pi * X[:, :, None]) * np.sin(np.pi * Y[:, None, :])
        assert np.max(np.abs(gxq - exact_q)) <= 1e-5


class TestProjection:
    def test_zero_field(self):
        m, b = disc(2, 2, 4)
        assert np.all(project(m, b, lambda x, y: np.zeros(np.broadcast(x, y).shape)) == 0)

    def test_reproduces_member_field(self, rng):
        m, b = disc(2, 2, 5)
        c = rng.standard_normal(m.n_global)
        field = lambda X, Y: evaluate_grid(m, b, c, np.ravel(X), np.ravel(Y))
        got = project(m, b, field)
        assert np.max(np.abs(got - c)) <= 1e-10

    def test_galerkin_orthogonality(self):
        m, b = disc(2, 2, 6)
        f = lambda x, y: np.exp(x) * np.sin(np.pi * y)
        c = project(m, b, f)
        M = assemble(m, b, 1.0, "mass")
        residual = load_vector(m, b, f) - M @ c
        assert np.max(np.abs(residual)) <= 1e-10

    def test_monotone_spectral_decay(self):
        errs = []
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        for order in (4, 6, 8, 10):
            m, b = disc(1, 1, order)
            c = project(m, b, f)
            xs = np.linspace(0, 1, 41)
            errs.append(np.max(np.abs(evaluate_grid(m, b, c, xs, xs)
                                      - f(xs[:, None], xs[None, :]))))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    @pytest.mark.parametrize("shape", [(1, 1, 24), (2, 2, 20), (8, 8, 10)])
    def test_project_load_matches_mass_lu(self, shape, rng):
        # per-axis solves against a sparse LU of the assembled 2D mass matrix
        m, b = disc(*shape, domain=(0, 2, -1, 0.5))
        proj = L2Projector(m, b)
        load = (load_vector(m, b, lambda x, y: np.exp(x) * np.cos(3 * y))
                + 1e-3 * rng.standard_normal(m.n_global))
        want = spla.splu(assemble(m, b, 1.0, "mass").tocsc()).solve(load)
        assert rel_err(proj.project_load(load), want) <= 1e-10

    @pytest.mark.parametrize("shape", [(2, 2, 8), (8, 8, 10)])
    def test_project_load_equals_cho_solve(self, shape, rng):
        # a load's projection is cho_solve on the stored factors, axis by
        # axis, whatever stack it comes in
        m, b = disc(*shape)
        proj = L2Projector(m, b)
        loads = rng.standard_normal((5, m.ax.n_dofs, m.ay.n_dofs))
        want = np.stack([cho_solve(proj.factors[1], cho_solve(proj.factors[0], B).T).T for B in loads])
        assert np.array_equal(proj.project_load(loads), want)
        assert np.array_equal(proj.project_load(loads[2].ravel()), want[2].ravel())
        assert np.array_equal(proj.project_load(loads.reshape(5, 1, *loads.shape[1:]))[:, 0],
                              want)

    def test_projector_reuse_matches_oneshot(self):
        # a projector that has already projected other fields gives what a
        # fresh one gives
        m, b = disc(2, 1, 4)
        f = lambda x, y: x * y
        proj = L2Projector(m, b)
        proj.project(lambda x, y: np.exp(x) + y)
        proj.project(lambda x, y, t: t * x, t=0.5)
        assert np.array_equal(proj.project(f), L2Projector(m, b).project(f))


class TestStateVector:
    def test_block_length_check(self):
        with pytest.raises(ValueError, match="mismatched"):
            StateVector(np.zeros(3), np.zeros(3), np.zeros(4))

    def test_values_at_quad_consistent(self, rng):
        m, b = disc(2, 2, 4)
        quad = Quadrature2D(m, b)
        c = rng.standard_normal(m.n_global)
        vals = values_at_quad(quad, c)
        for e in [0, 3]:
            X, Y = ref_element_grid(m, b, e)
            direct = evaluate_grid(m, b, c, X.ravel(), Y.ravel())
            assert np.max(np.abs(vals[e] - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# element-by-element reference for the tensor-grid kernel: gather the local
# coefficients through ref_dof_map, contract per element with einsum, scatter the
# local loads back with np.add.at
# ---------------------------------------------------------------------------

KERNEL_MESHES = [((3, 2, 5), UNIT), ((1, 1, 12), UNIT), ((2, 3, 6), (0, 2, -1, 0.5))]


def ref_element_tables(m, b):
    V, D = element_basis_table(b, b.quad_nodes)
    W = np.outer(b.quad_weights, b.quad_weights) * (m.ax.h / 2) * (m.ay.h / 2)
    return V, D, W


def ref_element_grid(m, b, e):
    ey, ex = divmod(e, m.nex)
    half = (b.quad_nodes + 1.0) / 2.0
    return ((m.ax.edges[ex] + half * m.ax.h)[:, None],
            (m.ay.edges[ey] + half * m.ay.h)[None, :])


def ref_gather(m, c):
    dof_map = ref_dof_map(m)
    local = np.where(dof_map >= 0, c[np.clip(dof_map, 0, None)], 0.0)
    return local.reshape(m.n_elements, m.order + 1, m.order + 1)


def ref_values(m, b, c):
    V, D, _ = ref_element_tables(m, b)
    local = ref_gather(m, c)
    return (np.einsum("emn,mq,nr->eqr", local, V, V),
            2 / m.ax.h * np.einsum("emn,mq,nr->eqr", local, D, V),
            2 / m.ay.h * np.einsum("emn,mq,nr->eqr", local, V, D))


def ref_load_from_values(m, b, vals):
    V, _, W = ref_element_tables(m, b)
    loc = np.einsum("eqr,qr,mq,nr->emn", vals, W, V, V).reshape(m.n_elements, -1)
    out = np.zeros(m.n_global)
    dof_map = ref_dof_map(m)
    keep = dof_map >= 0
    np.add.at(out, dof_map[keep], loc[keep])
    return out


def ref_assemble(m, b, coefficient_field, kind):
    """Element loop: local einsum contraction, dof_map scatter with summation."""
    V, D, W = ref_element_tables(m, b)
    dof_map = ref_dof_map(m)
    sx, sy = 2 / m.ax.h, 2 / m.ay.h
    n2 = (m.order + 1) ** 2

    def loc(C, Fx, Gx, Fy, Gy):
        return np.einsum("qr,mq,kq,nr,lr->mnkl", C, Fx, Gx, Fy, Gy).reshape(n2, n2)

    rows, cols, vals = [], [], []
    for e in range(m.n_elements):
        C = np.broadcast_to(coefficient_field(*ref_element_grid(m, b, e)), W.shape) * W
        if kind == "mass":
            A = loc(C, V, V, V, V)
        elif kind == "diffusion":
            A = sx * sx * loc(C, D, D, V, V) + sy * sy * loc(C, V, V, D, D)
        else:
            A = -sx * loc(C, D, V, V, V) - sy * loc(C, V, V, D, V)
        g = dof_map[e]
        keep = np.nonzero(g >= 0)[0]
        rows.append(np.repeat(g[keep], len(keep)))
        cols.append(np.tile(g[keep], len(keep)))
        vals.append(A[np.ix_(keep, keep)].ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(m.n_global, m.n_global)).tocsr()


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("shape,domain", KERNEL_MESHES)
class TestQuadratureKernel:
    def test_values_and_gradients(self, shape, domain, rng):
        m, b = disc(*shape, domain=domain)
        quad = Quadrature2D(m, b)
        c = rng.standard_normal(m.n_global)
        v, gx, gy = ref_values(m, b, c)
        assert rel_err(values_at_quad(quad, c), v) <= 1e-13
        got_gx, got_gy = gradient_at_quad(quad, c)
        assert rel_err(got_gx, gx) <= 1e-13
        assert rel_err(got_gy, gy) <= 1e-13

    def test_load_from_values(self, shape, domain, rng):
        m, b = disc(*shape, domain=domain)
        vals = rng.standard_normal((m.n_elements, b.n_quad, b.n_quad))
        got = load_from_values(Quadrature2D(m, b), vals)
        assert rel_err(got, ref_load_from_values(m, b, vals)) <= 1e-13

    def test_load_vector(self, shape, domain):
        m, b = disc(*shape, domain=domain)
        f = lambda x, y: np.exp(x) * np.cos(3 * y) + x * y
        vals = np.stack([f(*ref_element_grid(m, b, e)) for e in range(m.n_elements)])
        assert rel_err(load_vector(m, b, f), ref_load_from_values(m, b, vals)) <= 1e-13

    @pytest.mark.parametrize("kind", ["mass", "diffusion", "advection"])
    @pytest.mark.parametrize("coefficient", [0.7], ids=["constant"])
    def test_operators(self, shape, domain, kind, coefficient):
        m, b = disc(*shape, domain=domain)
        got = assemble(m, b, coefficient, kind)
        want = ref_assemble(m, b, const_field(coefficient), kind)
        assert got.nnz == want.nnz
        assert abs(got - want).max() / abs(want).max() <= 1e-13


# square (shared axis), nex != ney, and non-unit rectangular meshes
AXIS_MESHES = [((2, 2, 7), UNIT, True), ((1, 1, 12), (-1.0, 0.5, -1.0, 0.5), True),
               ((3, 2, 5), UNIT, False), ((2, 2, 6), (0, 2, -1, 0.5), False),
               ((1, 1, 8), (0, 1, 0, 2), False)]


@pytest.mark.parametrize("shape,domain,shared", AXIS_MESHES)
class TestPerAxisMatrices:
    def test_products_match_element_assembly(self, shape, domain, shared):
        # the per-axis products' Kronecker sums are the element oracle's 2D
        # operators
        m, b = disc(*shape, domain=domain)
        (Mx, Kx, Ax), (My, Ky, Ay) = Quadrature2D(m, b).axis_matrices()
        for kind, got in (("mass", np.kron(Mx, My)),
                          ("diffusion", np.kron(Kx, My) + np.kron(Mx, Ky)),
                          ("advection", np.kron(Ax, My) + np.kron(Mx, Ay))):
            want = ref_assemble(m, b, const_field(1.0), kind).toarray()
            assert rel_err(got, want) <= 1e-14, kind

    def test_exact_symmetry_and_zeros_off_the_pattern(self, shape, domain, shared):
        m, b = disc(*shape, domain=domain)
        for axis, (M, K, A) in zip((m.ax, m.ay), Quadrature2D(m, b).axis_matrices()):
            off = np.ones(M.shape, dtype=bool)
            off[_axis_pairs(axis)] = False
            for mat in (M, K, A):
                assert np.all(mat[off] == 0.0)
                assert not mat.flags.writeable
            assert np.array_equal(M, M.T) and np.array_equal(K, K.T)

    def test_square_mesh_builds_each_axis_once(self, monkeypatch, shape, domain, shared):
        # a square mesh shares its axis: one table, one set of per-axis
        # matrices and one mass factor serve x and y
        from stochsem import assembly
        calls = {"tables": 0, "cho_factor": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(assembly, "_axis_eval_matrix",
                            counting("tables", assembly._axis_eval_matrix))
        monkeypatch.setattr(assembly, "cho_factor", counting("cho_factor", assembly.cho_factor))
        m, b = disc(*shape, domain=domain)
        assert (m.ay is m.ax) == shared
        quad = Quadrature2D(m, b)
        axes = 1 if shared else 2
        assert calls == {"tables": axes, "cho_factor": 0}
        x, y = quad.axis_matrices()
        assert (y is x) == shared and quad.axis_matrices()[0] is x
        proj = L2Projector(m, b)
        assert calls == {"tables": 2 * axes, "cho_factor": axes}
        assert (proj.factors[1] is proj.factors[0]) == shared


class TestNonFiniteSamples:
    # NaN only in element (ex=2, ey=1) of a 3x2 mesh: the first bad
    # quadrature point is that element's first node in x and in y
    def bad(self, x, y):
        return np.where((x > 2 / 3) & (y > 0.5), np.nan, 1.0)

    def expected(self, m, b):
        X, Y = ref_element_grid(m, b, m.element_index(2, 1))
        return re.escape(f"quadrature point ({X[0, 0]}, {Y[0, 0]}) in element 5")

    def test_field_sample(self):
        m, b = disc(3, 2, 4)
        with pytest.raises(ValueError, match=self.expected(m, b)):
            load_vector(m, b, self.bad)

    def test_forcing_sample(self):
        m, b = disc(3, 2, 4)
        spec = make_test1()
        spec = dataclasses.replace(
            spec, forcing=(spec.forcing[0], lambda x, y, t: self.bad(x, y), spec.forcing[2]))
        ops = build_scheme(m, b, spec, 0.1)
        state = StateBatch(np.zeros((1, 3, m.ax.n_dofs, m.ay.n_dofs)))
        with pytest.raises(ValueError, match=self.expected(m, b)):
            step(ops, state, step_index=1)


class TestAxisTables:
    @staticmethod
    def per_point(axis, b, pts):
        """One locate_points and one element_basis_table call per point."""
        B = np.zeros((axis.n_dofs, len(pts)))
        dB = np.zeros_like(B)
        for i, x in enumerate(pts):
            (e,), X = axis.locate_points(np.array([x]))
            V, D = element_basis_table(b, X)
            g = axis.local_to_global[e]
            keep = g >= 0
            B[g[keep], i] = V[keep, 0]
            dB[g[keep], i] = D[keep, 0] * (2.0 / axis.h)
        return B, dB

    def test_matches_per_point_loop(self, rng):
        m, b = disc(3, 2, 5, domain=(0, 2, -1, 0.5))
        for axis in (m.ax, m.ay):
            pts = np.concatenate([axis.edges, rng.uniform(axis.lo, axis.hi, 17)])
            B, dB = _axis_eval_matrix(axis, b, pts)
            ref_B, ref_dB = self.per_point(axis, b, pts)
            assert np.array_equal(B, ref_B)
            assert np.array_equal(dB, ref_dB)

    def test_interfaces_resolve_to_lower_element(self):
        m, b = disc(3, 1, 4)
        ax = m.ax
        B, dB = _axis_eval_matrix(ax, b, ax.edges)
        # domain endpoints: every global function vanishes there
        assert np.max(np.abs(B[:, [0, -1]])) <= 1e-14
        for k in (1, 2):
            hat = ax.local_to_global[k, 0]    # the hat shared by elements k-1 and k
            col = np.zeros(ax.n_dofs)
            col[hat] = 1.0
            assert np.max(np.abs(B[:, k] - col)) <= 1e-15
            # the slope is the rising side of the hat, i.e. element k-1's
            assert dB[hat, k] == pytest.approx(1.0 / ax.h, rel=1e-14)
            assert np.all(dB[ax.local_to_global[k, 1:-1], k] == 0)

    def test_outside_domain(self):
        m, b = disc(2, 1, 4)
        with pytest.raises(ValueError, match="outside"):
            _axis_eval_matrix(m.ax, b, [0.5, 1.2])

    def test_basis_order_must_match_the_mesh(self):
        m, _ = disc(2, 1, 4)
        with pytest.raises(ValueError, match="basis order 5 does not match mesh order 4"):
            Quadrature2D(m, make_basis(5))


# ---------------------------------------------------------------------------
# properties on random tensor meshes: the operators equal the element
# assembly, mass and stiffness are SPD, advection is antisymmetric
# ---------------------------------------------------------------------------

rectangles = st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0),
                       st.floats(-2.0, 2.0), st.floats(0.1, 3.0)).map(
    lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3]))
discretizations = st.builds(lambda nex, ney, order, domain: disc(nex, ney, order, domain),
                            st.integers(1, 3), st.integers(1, 3), st.integers(2, 7),
                            rectangles)
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, database=None, derandomize=True)


class TestOperatorProperties:
    @PROPERTY_SETTINGS
    @given(discretizations, st.sampled_from(["mass", "diffusion", "advection"]),
           st.floats(0.1, 10.0))
    def test_matches_element_assembly(self, mb, kind, coefficient):
        m, b = mb
        assume(m.n_global > 1 or kind != "advection")   # one dof: advection is 0
        got = assemble(m, b, coefficient, kind)
        want = ref_assemble(m, b, const_field(coefficient), kind)
        assert got.nnz == want.nnz
        assert abs(got - want).max() / abs(want).max() <= 1e-13

    @PROPERTY_SETTINGS
    @given(discretizations, st.sampled_from(["mass", "diffusion"]))
    def test_spd(self, mb, kind):
        m, b = mb
        A = assemble(m, b, 1.0, kind).toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-13 * np.max(np.abs(A))
        assert np.linalg.eigvalsh(A).min() > 0

    @PROPERTY_SETTINGS
    @given(discretizations)
    def test_advection_antisymmetric(self, mb):
        m, b = mb
        assume(m.n_global > 1)   # one dof: advection is 0
        A = assemble(m, b, 1.0, "advection").toarray()
        assert np.max(np.abs(A + A.T)) <= 1e-13 * np.max(np.abs(A))


# ---------------------------------------------------------------------------
# the scheme's per-axis operators and Schur solves against the 2D operator
# assembled by the element oracle
# ---------------------------------------------------------------------------

def scheme_spec(xi, zeta, r):
    zero = const_field(0.0)
    return ModelSpec(xi=xi, zeta=zeta, r=r, wp=0.0, e=(1.0, 1.0, 1.0), kappa=(1.0, 1.0),
                     nonlinearity="saturating_sum", init=(zero, zero, zero))


class TestPerAxisScheme:
    @PROPERTY_SETTINGS
    @given(discretizations, st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
           st.floats(-1.0, 3.0), st.floats(1e-3, 0.5), st.integers(0, 2**32 - 1))
    def test_apply_and_solve_match_oracle(self, mb, xi, zeta, r, tau, seed):
        m, b = mb
        ops = build_scheme(m, b, scheme_spec(xi, zeta, r), tau)
        mass, diff, adv = (ref_assemble(m, b, const_field(1.0), kind)
                           for kind in ("mass", "diffusion", "advection"))
        rng = np.random.default_rng(seed)
        shape = (m.ax.n_dofs, m.ay.n_dofs)
        for f, rf in enumerate((0.0, 0.0, r)):     # fields u, v, w
            X = rng.standard_normal((3, *shape))
            for got, sign in zip(ops.sides.apply(X), (1.0, -1.0)):    # L X, R X
                want = ((1.0 + sign * tau / 2 * rf) * mass
                        + sign * tau / 2 * (zeta * diff + xi * adv)).tocsc()
                assert rel_err(got[f].ravel(), want @ X[f].ravel()) <= 1e-13
            L = ((1.0 + tau / 2 * rf) * mass + tau / 2 * (zeta * diff + xi * adv)).tocsc()
            R = rng.standard_normal((3, *shape))
            sol, scale, info = ops.factor.solve(R)
            assert (scale[f], info[f]) == (1.0, 0)
            x = sol[f].ravel()
            assert np.linalg.norm(L @ x - R[f].ravel()) / np.linalg.norm(R[f]) <= 1e-10
            assert np.linalg.norm(x - spla.spsolve(L, R[f].ravel())) / np.linalg.norm(x) <= 1e-10
