"""Assembly of global operators, load vectors, evaluation and L2 projection.

The mesh is a tensor product with global dof gx * n1d_y + gy, so every job
runs on one tensor-product quadrature kernel (sum factorization): Quadrature2D
tabulates the global 1D basis at the Gauss abscissae of all elements along
each axis (Bx, By and the physical derivatives dBx, dBy) and holds the weight
grid W = wx (x) wy with the Jacobian folded in.  With C a coefficient vector
reshaped to (n1d_x, n1d_y), field values on the whole grid are Bx^T C By and
loads Bx (F * W) By^T.

Coefficients are constants, so every operator is a Kronecker sum of per-axis
1D matrices (Lynch, Rice & Thomas 1964; Shen 1994).  Per axis, on the pairs
(i, k) of 1D dofs that share an element (the 1D sparsity pattern),

    M[i, k] = (B_i B_k) . w      K[i, k] = (dB_i dB_k) . w
    A[i, k] = -(dB_i B_k) . w

and the three operator kinds are

    mass       (phi_j, phi_i)                         Mx (x) My
    diffusion  (grad phi_j, grad phi_i)               Kx (x) My + Mx (x) Ky
    advection  -(phi_j, d/dx phi_i) - (phi_j, d/dy phi_i)
                                                      Ax (x) My + Mx (x) Ay

Quadrature2D.operator writes any combination m*mass + d*diffusion +
a*advection as two outer products of per-axis entries, whose entry
[(i, k), (j, l)] lands at row i * n1d_y + j, column k * n1d_y + l.  The
advection pairing puts the derivative on the test function, which for
homogeneous Dirichlet data equals the usual (grad phi_j, phi_i) pairing by
integration by parts and makes the operator antisymmetric.

L2 projection uses the same factorization: the unit mass matrix is Mx (x) My,
so it is solved axis by axis (L2Projector).

All outputs are deterministic and immutable once built, safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

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
    evaluates fields, loads and operators on it.

    x, y are the Gauss abscissae of all element columns / rows, element by
    element (x = xq.ravel(), with xq[ex] the nodes of element column ex).
    `tables` holds (Bx, dBx, By, dBy): the global 1D basis at them, shape
    (n1d, ne * n_quad), and its physical derivatives; wx, wy are the 1D
    weights and W = wx (x) wy the weight grid, with the Jacobian folded in.
    With C the coefficient vector reshaped to (n1d_x, n1d_y), values are
    Bx^T C By and loads Bx (F * W) By^T: sum factorization over the whole
    tensor mesh, with no per-element gather or scatter.  `operator` builds
    the constant-coefficient operators as Kronecker sums of per-axis mass,
    stiffness and advection entries from the same tables.
    """

    def __init__(self, mesh: Mesh2D, basis: Basis1D):
        if basis.order != mesh.order:
            raise ValueError(
                f"basis order {basis.order} does not match mesh order {mesh.order}")
        self.mesh, self.basis = mesh, basis
        half = (basis.quad_nodes + 1.0) / 2.0
        self.xq = mesh.ax.edges[:-1, None] + half * mesh.ax.h
        self.yq = mesh.ay.edges[:-1, None] + half * mesh.ay.h
        self.x, self.y = self.xq.ravel(), self.yq.ravel()
        self.wx = np.tile(basis.quad_weights, mesh.nex) * (mesh.ax.h / 2.0)
        self.wy = np.tile(basis.quad_weights, mesh.ney) * (mesh.ay.h / 2.0)
        self.W = np.outer(self.wx, self.wy)
        self.tables = (*_axis_eval_matrix(mesh.ax, basis, self.x),
                       *_axis_eval_matrix(mesh.ay, basis, self.y))

    @property
    def grid(self):
        """Global quadrature grid as broadcastable (X, Y) of shapes (nx, 1), (1, ny)."""
        return self.x[:, None], self.y[None, :]

    def values(self, coeffs: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Field values (or the x / y partial derivative for dx / dy = 1) on
        the global grid, shape (nx, ny), of a flat (n_global,) coefficient
        vector; a stack (..., n1d_x, n1d_y) gives (..., nx, ny)."""
        Bx, dBx, By, dBy = self.tables
        C = np.asarray(coeffs)
        if C.ndim == 1:
            C = C.reshape(len(Bx), len(By))
        return (dBx if dx else Bx).T @ C @ (dBy if dy else By)

    def load(self, F: np.ndarray) -> np.ndarray:
        """Loads int F phi_i dOmega from samples F (..., nx, ny) on the global
        grid, as (..., n1d_x, n1d_y) matrices."""
        Bx, _, By, _ = self.tables
        return Bx @ (F * self.W) @ By.T

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

    @cached_property
    def _axis_entries(self):
        """Per axis: the dof pairs (i, k) sharing an element and the mass,
        stiffness and advection entries on them."""
        Bx, dBx, By, dBy = self.tables
        out = []
        for axis, B, dB, w in ((self.mesh.ax, Bx, dBx, self.wx),
                               (self.mesh.ay, By, dBy, self.wy)):
            i, k = _axis_pairs(axis)
            out.append((i, k, (B[i] * B[k]) @ w, (dB[i] * dB[k]) @ w, -(dB[i] * B[k]) @ w))
        return out

    def axis_matrices(self):
        """The same entries as dense per-axis matrices: ((Mx, Kx, Ax),
        (My, Ky, Ay)), each (n1d, n1d) with zeros off the 1D pattern."""
        out = []
        for axis, (i, k, *entries) in zip((self.mesh.ax, self.mesh.ay), self._axis_entries):
            mats = np.zeros((3, axis.n_dofs, axis.n_dofs))
            mats[:, i, k] = entries
            out.append(tuple(mats))
        return tuple(out)

    def operator(self, m: float = 0.0, d: float = 0.0, a: float = 0.0) -> sp.csr_matrix:
        """m * mass + d * diffusion + a * advection, as CSR with every pair
        of dofs that share an element stored (exact zeros included)."""
        (ix, kx, Mx, Kx, Ax), (jy, ly, My, Ky, Ay) = self._axis_entries
        vals = np.outer(m * Mx + d * Kx + a * Ax, My) + np.outer(Mx, d * Ky + a * Ay)
        ny, n = self.mesh.ay.n_dofs, self.mesh.n_global
        rows = (ix[:, None] * ny + jy[None, :]).ravel()
        cols = (kx[:, None] * ny + ly[None, :]).ravel()
        return sp.csr_matrix((vals.ravel(), (rows, cols)), shape=(n, n))

    def to_elements(self, G: np.ndarray) -> np.ndarray:
        """Global-grid array (nx, ny) in per-element layout (n_el, nq, nq)."""
        m, nq = self.mesh, self.basis.n_quad
        return (G.reshape(m.nex, nq, m.ney, nq).transpose(2, 0, 1, 3)
                .reshape(m.n_elements, nq, nq))

    def from_elements(self, values: np.ndarray) -> np.ndarray:
        """Per-element layout (n_el, nq, nq) back to the global grid (nx, ny)."""
        m, nq = self.mesh, self.basis.n_quad
        return (values.reshape(m.ney, m.nex, nq, nq).transpose(1, 2, 0, 3)
                .reshape(m.nex * nq, m.ney * nq))


def _axis_pairs(axis):
    """Pairs (i, k) of 1D global dofs that share an element, sorted by i then k."""
    g = axis.local_to_global
    i, k = np.repeat(g, g.shape[1], axis=1), np.tile(g, g.shape[1])
    keep = (i >= 0) & (k >= 0)
    return np.divmod(np.unique(i[keep] * axis.n_dofs + k[keep]), axis.n_dofs)


def assemble(mesh: Mesh2D, basis: Basis1D, coefficient: float, kind: str) -> sp.csr_matrix:
    """One global operator of the given kind times a constant coefficient."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return Quadrature2D(mesh, basis).operator(
        *(coefficient if kind == k else 0.0 for k in OPERATOR_KINDS))


def load_vector(mesh: Mesh2D, basis: Basis1D, field, t: float | None = None) -> np.ndarray:
    """Load vector int field * phi_i dOmega by tensor quadrature.

    field is (x, y) -> array, or (x, y, t) -> array when t is given; it is
    sampled once on the whole quadrature grid.
    """
    quad = Quadrature2D(mesh, basis)
    return quad.load(quad.sample(field, t)).ravel()


def load_from_values(quad: Quadrature2D, values: np.ndarray) -> np.ndarray:
    """Load vector from precomputed values at all element quadrature grids.

    values has shape (n_elements, n_quad, n_quad); used for the nonlinear
    term, whose arguments already live at the quadrature points.
    """
    return quad.load(quad.from_elements(values)).ravel()


def values_at_quad(quad: Quadrature2D, coeffs: np.ndarray) -> np.ndarray:
    """Field values at every element quadrature grid, shape (n_el, nq, nq)."""
    return quad.to_elements(quad.values(coeffs))


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


def evaluate_grid(mesh: Mesh2D, basis: Basis1D, coeffs: np.ndarray, xs, ys,
                  dx: int = 0, dy: int = 0) -> np.ndarray:
    """Field values on the tensor grid xs x ys, shape (len(xs), len(ys)).

    dx/dy in {0, 1} select the x/y partial derivative instead of the value.
    """
    if len(coeffs) != mesh.n_global:
        raise ValueError(f"coefficient vector length {len(coeffs)} != {mesh.n_global}")
    Bx, dBx = _axis_eval_matrix(mesh.ax, basis, xs)
    By, dBy = _axis_eval_matrix(mesh.ay, basis, ys)
    C = np.asarray(coeffs).reshape(mesh.ax.n_dofs, mesh.ay.n_dofs)
    return (dBx if dx else Bx).T @ C @ (dBy if dy else By)


class L2Projector:
    """Repeated L2 projections onto the global space by per-axis mass solves.

    The unit mass matrix is Mx (x) My with Mx = Bx diag(wx) Bx^T (likewise
    for y), so Mass^{-1} b = Mx^{-1} B My^{-1} with B the load reshaped to
    (n1d_x, n1d_y): one Cholesky factor per axis, no 2D operator and no 2D
    factorization.
    """

    def __init__(self, mesh: Mesh2D, basis: Basis1D):
        self.mesh, self.basis = mesh, basis
        self.quad = Quadrature2D(mesh, basis)
        Bx, _, By, _ = self.quad.tables
        self._mx = cho_factor(Bx @ (self.quad.wx[:, None] * Bx.T))
        self._my = cho_factor(By @ (self.quad.wy[:, None] * By.T))

    def project(self, field, t: float | None = None) -> np.ndarray:
        return self.project_load(self.quad.load(self.quad.sample(field, t))).ravel()

    def project_load(self, load: np.ndarray) -> np.ndarray:
        """Mass^{-1} load, in the shape of load: a flat (n_global,) vector or
        a stack (..., n1d_x, n1d_y) of matrix-form loads.

        Each axis is one LAPACK dpotrs on its Cholesky factor, with the
        columns of every load of the stack side by side (dpotrs solves each
        column alike, so a load's projection does not depend on the stack).
        """
        nx, ny = self.mesh.ax.n_dofs, self.mesh.ay.n_dofs
        B = np.reshape(load, (-1, nx, ny))
        k = len(B)
        X = _potrs(self._mx, B.transpose(1, 0, 2).reshape(nx, k * ny))
        Y = _potrs(self._my, X.reshape(nx, k, ny).transpose(2, 1, 0).reshape(ny, k * nx))
        return Y.reshape(ny, k, nx).transpose(1, 2, 0).reshape(np.shape(load))


def _potrs(factor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by dpotrs on A's cho_factor result (c, lower)."""
    c, lower = factor
    x, info = dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"dpotrs failed with info {info}")
    return x
