"""Assembly of global operators, load vectors, evaluation and L2 projection.

The mesh is a tensor product with global dof gx * n1d_y + gy, so every job
runs on one tensor-product quadrature kernel (sum factorization): Quadrature2D
tabulates the global 1D basis at the Gauss abscissae of all elements along
each axis (Bx, By and the physical derivatives dBx, dBy) and holds the weight
grid W = wx (x) wy with the Jacobian folded in.  With C a coefficient vector
reshaped to (n1d_x, n1d_y), field values on the whole grid are Bx^T C By and
loads Bx (F * W) By^T.

Coefficients are constants, so every operator is a Kronecker sum of per-axis
1D matrices (Lynch, Rice & Thomas 1964).  Per axis, with B, dB the axis's
tables and w its weights, each matrix is one product:

    M = (B w) B^T      K = (dB w) dB^T      A = -(dB w) B^T

(M and K are symmetrized, so exactly symmetric; a pair (i, k) of 1D dofs that
share no element has no common nonzero in the tables, so its entries are
exact zeros), and the three operator kinds are

    mass       (phi_j, phi_i)                         Mx (x) My
    diffusion  (grad phi_j, grad phi_i)               Kx (x) My + Mx (x) Ky
    advection  -(phi_j, d/dx phi_i) - (phi_j, d/dy phi_i)
                                                      Ax (x) My + Mx (x) Ay

The solver works on these per-axis matrices alone.  `assemble` is the 2D
CSR form, kept for the benchmark and the tests: one kind times a constant
as two outer products of the per-axis entries on the pairs that share an
element (the 1D sparsity pattern), whose entry [(i, k), (j, l)] lands at
row i * n1d_y + j, column k * n1d_y + l.  The advection pairing puts the
derivative on the test function, which for homogeneous Dirichlet data
equals the usual (grad phi_j, phi_i) pairing by integration by parts and
makes the operator antisymmetric.

A square mesh shares one axis (mesh.shared_axis): its tables, per-axis
matrices and mass factor are built once, by mesh.per_axis, and serve both
axes.

L2 projection uses the same factorization: the unit mass matrix is Mx (x) My,
so it is solved axis by axis (L2Projector).

All outputs are deterministic and immutable once built, safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .basis import Basis1D
from .mesh import Mesh2D, element_basis_table

OPERATOR_KINDS = ("mass", "diffusion", "advection")


@dataclass
class StateVector:
    """Coefficient blocks of the three fields at one time level."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if not (len(self.u) == len(self.v) == len(self.w)):
            raise ValueError("state blocks have mismatched lengths")

    @property
    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.u, self.v, self.w)

    @property
    def n(self) -> int:
        return len(self.u)

    def copy(self) -> "StateVector":
        return StateVector(self.u.copy(), self.v.copy(), self.w.copy(), self.t)

    def stacked(self) -> np.ndarray:
        return np.stack(self.fields)


class Quadrature2D:
    """Tensor-product quadrature grid of one (mesh, basis) and the kernel that
    evaluates fields and loads on it.

    x, y are the Gauss abscissae of all element columns / rows, element by
    element (x = xq.ravel(), with xq[ex] the nodes of element column ex).
    `tables` holds (Bx, dBx, By, dBy): the global 1D basis at them, shape
    (n1d, ne * n_quad), and its physical derivatives; wx, wy are the 1D
    weights and W = wx (x) wy the weight grid, with the Jacobian folded in.
    With C the coefficient vector reshaped to (n1d_x, n1d_y), values are
    Bx^T C By and loads Bx (F * W) By^T: sum factorization over the whole
    tensor mesh, with no per-element gather or scatter.  `axis_matrices`
    builds the per-axis mass, stiffness and advection matrices from the same
    tables; no 2D operator lives here (assemble is the 2D CSR form, kept for
    the benchmark and the tests).  On a shared axis (mesh.shared_axis) the y
    grid, weights, tables and matrices are the x-axis objects.
    """

    def __init__(self, mesh: Mesh2D, basis: Basis1D):
        if basis.order != mesh.order:
            raise ValueError(
                f"basis order {basis.order} does not match mesh order {mesh.order}")
        self.mesh, self.basis = mesh, basis
        x, y = mesh.per_axis(_axis_grid, (mesh.ax, basis), (mesh.ay, basis))
        (self.xq, self.wx, Bx, dBx), (self.yq, self.wy, By, dBy) = x, y
        self.x, self.y = self.xq.ravel(), self.yq.ravel()
        self.W = np.outer(self.wx, self.wy)
        self.tables = (Bx, dBx, By, dBy)
        self._byt = np.ascontiguousarray(By.T)     # load's right operand, C-contiguous
        self._axis_matrices = None

    @property
    def grid(self):
        """Global quadrature grid as broadcastable (X, Y) of shapes (nx, 1), (1, ny)."""
        return self.x[:, None], self.y[None, :]

    def values(self, coeffs: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Field values (or the x / y partial derivative for dx / dy = 1) on
        the global grid, shape (nx, ny), of a flat (n_global,) coefficient
        vector; a stack (..., n1d_x, n1d_y) gives (..., nx, ny)."""
        return grid_values(self.tables, coeffs, dx, dy)

    def load(self, F: np.ndarray) -> np.ndarray:
        """Loads int F phi_i dOmega from samples F (..., nx, ny) on the global
        grid, as (..., n1d_x, n1d_y) matrices."""
        return self.tables[0] @ (F * self.W) @ self._byt

    def sample(self, field, t: float | None = None) -> np.ndarray:
        """Samples of field (x, y), or (x, y, t) when t is given, on the
        global grid, checked by `finite`."""
        X, Y = self.grid
        F = field(X, Y) if t is None else field(X, Y, t)
        return self.finite(np.broadcast_to(np.asarray(F, dtype=float),
                                           (len(self.x), len(self.y))))

    def finite(self, F: np.ndarray) -> np.ndarray:
        """F, samples (..., nx, ny) on the global grid, after checking that
        they are finite: the first non-finite sample raises ValueError naming
        its quadrature point and element."""
        if not np.all(np.isfinite(F)):
            *_, i, j = np.unravel_index(int(np.argmin(np.isfinite(F))), F.shape)
            nq = self.basis.n_quad
            raise ValueError(
                f"non-finite field sample at quadrature point "
                f"({self.x[i]}, {self.y[j]}) in element "
                f"{self.mesh.element_index(i // nq, j // nq)}")
        return F

    def axis_matrices(self):
        """The per-axis mass, stiffness and advection matrices ((Mx, Kx, Ax),
        (My, Ky, Ay)), each (n1d, n1d) with exact zeros off the 1D pattern;
        built on the first call and read-only.  A shared axis gives one
        tuple for both."""
        if self._axis_matrices is None:
            Bx, dBx, By, dBy = self.tables
            self._axis_matrices = self.mesh.per_axis(
                _axis_products, (Bx, dBx, self.wx), (By, dBy, self.wy))
        return self._axis_matrices


def _axis_grid(axis, basis: Basis1D):
    """The Gauss abscissae of all elements along one axis, shape
    (ne, n_quad), their weights with the Jacobian folded in, and the tables
    (B, dB) of the axis's global 1D basis at them."""
    q = axis.edges[:-1, None] + (basis.quad_nodes + 1.0) / 2.0 * axis.h
    w = np.tile(basis.quad_weights, axis.ne) * (axis.h / 2.0)
    return (q, w, *_axis_eval_matrix(axis, basis, q.ravel()))


def _axis_products(B, dB, w):
    """One axis's mass, stiffness and advection matrices from its tables B,
    dB and weights w: one product each, M and K symmetrized, read-only."""
    Bw, dBw = B * w, dB * w
    M, K = Bw @ B.T, dBw @ dB.T
    mats = (0.5 * (M + M.T), 0.5 * (K + K.T), -(dBw @ B.T))
    for mat in mats:
        mat.setflags(write=False)
    return mats


def _axis_pairs(axis):
    """Pairs (i, k) of 1D global dofs that share an element, sorted by i then k."""
    g = axis.local_to_global
    i, k = np.repeat(g, g.shape[1], axis=1), np.tile(g, g.shape[1])
    keep = (i >= 0) & (k >= 0)
    return np.divmod(np.unique(i[keep] * axis.n_dofs + k[keep]), axis.n_dofs)


def assemble(mesh: Mesh2D, basis: Basis1D, coefficient: float, kind: str) -> sp.csr_matrix:
    """One global operator of the given kind times a constant coefficient, as
    CSR with every pair of dofs that share an element stored (exact zeros
    included).  The solver never forms it: this 2D form of the per-axis
    matrices is kept for the benchmark and the tests."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    m, d, a = (coefficient if kind == k else 0.0 for k in OPERATOR_KINDS)
    (ix, kx), (jy, ly) = _axis_pairs(mesh.ax), _axis_pairs(mesh.ay)
    x, y = Quadrature2D(mesh, basis).axis_matrices()
    Mx, Kx, Ax = (mat[ix, kx] for mat in x)
    My, Ky, Ay = (mat[jy, ly] for mat in y)
    vals = np.outer(m * Mx + d * Kx + a * Ax, My) + np.outer(Mx, d * Ky + a * Ay)
    ny, n = mesh.ay.n_dofs, mesh.n_global
    rows = (ix[:, None] * ny + jy[None, :]).ravel()
    cols = (kx[:, None] * ny + ly[None, :]).ravel()
    return sp.csr_matrix((vals.ravel(), (rows, cols)), shape=(n, n))


def load_vector(mesh: Mesh2D, basis: Basis1D, field, t: float | None = None) -> np.ndarray:
    """Load vector int field * phi_i dOmega by tensor quadrature.

    field is (x, y) -> array, or (x, y, t) -> array when t is given; it is
    sampled once on the whole quadrature grid.
    """
    quad = Quadrature2D(mesh, basis)
    return quad.load(quad.sample(field, t)).ravel()


def load_from_values(quad: Quadrature2D, values: np.ndarray) -> np.ndarray:
    """Load vector from values at every element quadrature grid, shape
    (n_elements, n_quad, n_quad) with element e = ey * nex + ex first."""
    m, nq = quad.mesh, quad.basis.n_quad
    F = (values.reshape(m.ney, m.nex, nq, nq).transpose(1, 2, 0, 3)
         .reshape(m.nex * nq, m.ney * nq))
    return quad.load(F).ravel()


def values_at_quad(quad: Quadrature2D, coeffs: np.ndarray) -> np.ndarray:
    """Field values at every element quadrature grid, shape (n_el, nq, nq),
    the layout load_from_values takes."""
    m, nq = quad.mesh, quad.basis.n_quad
    return (quad.values(coeffs).reshape(m.nex, nq, m.ney, nq).transpose(2, 0, 1, 3)
            .reshape(m.n_elements, nq, nq))


def _axis_eval_matrix(axis, basis: Basis1D, pts):
    """Tables of all 1D global basis functions at the points.

    Returns (B, dB), each of shape (axis.n_dofs, len(pts)): values and
    physical-space derivatives (chain factor 2/h).  Points on element
    interfaces resolve to the lower-indexed element.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    e, ref = axis.locate_points(pts)
    V, D = element_basis_table(basis, ref)
    g = axis.local_to_global[e]                  # (npts, N+1)
    keep = g >= 0
    col = np.broadcast_to(np.arange(pts.size)[:, None], g.shape)[keep]
    B = np.zeros((axis.n_dofs, pts.size))
    dB = np.zeros_like(B)
    B[g[keep], col] = V.T[keep]
    dB[g[keep], col] = D.T[keep] * (2.0 / axis.h)
    return B, dB


def grid_tables(mesh: Mesh2D, basis: Basis1D, xs, ys):
    """The tables (Bx, dBx, By, dBy) of the global 1D bases at the points xs
    and ys: what evaluate_grid builds, to evaluate many fields on one grid
    (grid_values)."""
    return (*_axis_eval_matrix(mesh.ax, basis, xs), *_axis_eval_matrix(mesh.ay, basis, ys))


def grid_values(tables, coeffs: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
    """Values (or the x / y partial derivative for dx / dy = 1) on the tensor
    grid of tables (Bx, dBx, By, dBy) of a flat (n_global,) coefficient
    vector or a stack (..., n1d_x, n1d_y) of coefficient matrices."""
    Bx, dBx, By, dBy = tables
    C = np.asarray(coeffs)
    if C.ndim == 1:
        C = C.reshape(len(Bx), len(By))
    return (dBx if dx else Bx).T @ C @ (dBy if dy else By)


def evaluate_grid(mesh: Mesh2D, basis: Basis1D, coeffs: np.ndarray, xs, ys,
                  dx: int = 0, dy: int = 0) -> np.ndarray:
    """Field values on the tensor grid xs x ys, shape (len(xs), len(ys)).

    dx/dy in {0, 1} select the x/y partial derivative instead of the value.
    """
    if len(coeffs) != mesh.n_global:
        raise ValueError(f"coefficient vector length {len(coeffs)} != {mesh.n_global}")
    return grid_values(grid_tables(mesh, basis, xs, ys), coeffs, dx, dy)


class L2Projector:
    """Repeated L2 projections onto the global space by per-axis mass solves.

    The unit mass matrix is Mx (x) My (quad.axis_matrices), so
    Mass^{-1} b = Mx^{-1} B My^{-1} with B the load reshaped to
    (n1d_x, n1d_y): one Cholesky factor per distinct axis, `factors` (one
    object twice on a shared axis), no 2D operator and no 2D factorization.
    A scheme's solver shares these factors (timestepper.build_scheme), so
    each scheme factors its mass once.
    """

    def __init__(self, mesh: Mesh2D, basis: Basis1D):
        self.mesh, self.basis = mesh, basis
        self.quad = Quadrature2D(mesh, basis)
        (mx, *_), (my, *_) = self.quad.axis_matrices()
        self.factors = mesh.per_axis(cho_factor, (mx,), (my,))

    def project(self, field, t: float | None = None) -> np.ndarray:
        return self.project_load(self.quad.load(self.quad.sample(field, t))).ravel()

    def project_load(self, load: np.ndarray) -> np.ndarray:
        """Mass^{-1} load, in the shape of load: a flat (n_global,) vector or
        a stack (..., n1d_x, n1d_y) of matrix-form loads.

        Each load is two cho_solves of its own, one per axis on that axis's
        factor.  A load's columns are never solved beside another load's:
        some BLAS kernels (OpenBLAS's AVX2 ones) round a triangular solve's
        columns differently with their number, and a load's projection must
        not depend on its stack.
        """
        nx, ny = self.mesh.ax.n_dofs, self.mesh.ay.n_dofs
        fx, fy = self.factors
        B = np.reshape(load, (-1, nx, ny))
        out = np.stack([cho_solve(fy, cho_solve(fx, b).T).T for b in B])
        return out.reshape(np.shape(load))
