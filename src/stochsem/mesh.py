"""Rectangular multi-element mesh with C0 global numbering.

The domain is tiled by nex x ney axis-aligned rectangles of equal size, each
carrying a tensor-product basis of uniform order N.  Along each direction the
per-element 1D basis is {hat_left} + {psi_0..psi_{N-2}} + {hat_right}: the
interior modes vanish at element endpoints, so C0 continuity across element
interfaces is carried entirely by the two linear hat functions, which collapse
to a single shared global degree of freedom at every interior interface.  Hats
sitting on the domain boundary are dropped, so every global basis function
vanishes on the boundary.

Global 2D degrees of freedom are tensor products of the two 1D global bases,
numbered gx * n1d_y + gy.  A square mesh (the same interval and element count
along both axes, as on every mesh the studies build) has one 1D numbering,
shared by both axes (`ay is ax`, `Mesh2D.shared_axis`).  Everything built
per axis downstream goes through `Mesh2D.per_axis`, which builds it once on
a shared axis.
"""
from __future__ import annotations

import numpy as np

from .basis import Basis1D, shen_table


def element_basis_table(basis: Basis1D, pts):
    """All N+1 local 1D functions (and reference derivatives) at the points.

    Row 0 is the left hat (1-x)/2, rows 1..N-1 the interior modes, row N the
    right hat (1+x)/2.

    Returns
    -------
    (V, D) : arrays of shape (N+1, len(pts))
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    n = basis.order + 1
    V = np.zeros((n, pts.size))
    D = np.zeros_like(V)
    V[0] = (1.0 - pts) / 2.0
    D[0] = -0.5
    V[-1] = (1.0 + pts) / 2.0
    D[-1] = 0.5
    P, dP = shen_table(basis, pts)
    V[1:-1] = P
    D[1:-1] = dP
    return V, D


class _Axis:
    """1D numbering for one coordinate direction.

    Geometric left-to-right ordering: modes of element 0, interface hat 1,
    modes of element 1, interface hat 2, ...  Boundary hats map to -1.
    """

    def __init__(self, lo: float, hi: float, ne: int, order: int):
        self.lo, self.hi, self.ne, self.order = lo, hi, ne, order
        self.h = (hi - lo) / ne
        self.edges = np.linspace(lo, hi, ne + 1)
        # element e's local index m (0 left hat, 1..order-1 modes, order right
        # hat) is global e * order + m - 1; the two boundary hats are dropped
        self.local_to_global = np.arange(ne)[:, None] * order + np.arange(order + 1) - 1
        self.local_to_global[0, 0] = self.local_to_global[-1, -1] = -1
        self.n_dofs = ne * order - 1

    def locate_points(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing elements and reference coordinates of a 1D point array;
        points on element edges resolve to the lower-indexed element."""
        outside = ~((self.lo <= xs) & (xs <= self.hi))
        if np.any(outside):
            raise ValueError(f"coordinate {xs[outside][0]} outside [{self.lo}, {self.hi}]")
        e = np.clip(np.searchsorted(self.edges, xs, side="left") - 1, 0, self.ne - 1)
        return e, 2.0 * (xs - self.edges[e]) / self.h - 1.0


class Mesh2D:
    """Tensor-product rectangular mesh with global C0 numbering.

    Attributes
    ----------
    domain : (x0, x1, y0, y1)
    nex, ney : elements per direction
    order : per-element polynomial degree N
    n_global : total interior degrees of freedom
    n_elements : nex * ney; element (ex, ey) has index ey * nex + ex
    ax, ay : per-axis 1D numbering (_Axis); the global dof of the pair
        (gx, gy) of 1D dofs is gx * ay.n_dofs + gy.  On a square mesh
        ((y0, y1, ney) == (x0, x1, nex)) they are one object, ay is ax.
    shared_axis : whether ay is ax
    """

    def __init__(self, domain, nex: int, ney: int, order: int):
        x0, x1, y0, y1 = map(float, domain)
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"invalid domain {domain}: rectangle has no area")
        if nex < 1 or ney < 1:
            raise ValueError(f"element counts must be >= 1, got {nex} x {ney}")
        if order < 2:
            raise ValueError(f"element order must be >= 2, got {order}")
        self.domain = (x0, x1, y0, y1)
        self.nex, self.ney, self.order = nex, ney, order
        self.ax = _Axis(x0, x1, nex, order)
        self.ay = self.ax if (y0, y1, ney) == (x0, x1, nex) else _Axis(y0, y1, ney, order)
        self.n_global = self.ax.n_dofs * self.ay.n_dofs
        self.n_elements = nex * ney

    @property
    def shared_axis(self) -> bool:
        return self.ay is self.ax

    def per_axis(self, f, x_args, y_args):
        """(f(*x_args), f(*y_args)): a value built per axis.  On a shared
        axis f runs once and both entries are that one object."""
        x = f(*x_args)
        return x, x if self.shared_axis else f(*y_args)

    def element_index(self, ex: int, ey: int) -> int:
        return ey * self.nex + ex


def build_mesh(domain, nex: int, ney: int, order: int) -> Mesh2D:
    """Partition the rectangle `domain` = (x0, x1, y0, y1) into nex x ney
    equal elements of order `order` and number the global C0 space."""
    return Mesh2D(domain, nex, ney, order)
