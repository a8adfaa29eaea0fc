import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre, leggauss


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def shen_poly(k: int):
    """Independent realization of the modal basis via numpy's Legendre
    polynomial objects (used as the oracle against the package's recurrences)."""
    g = 1.0 / np.sqrt(4.0 * k + 6.0)
    return (Legendre.basis(k) - Legendre.basis(k + 2)) * g


def quad_gram(order: int, deriv: bool = False, n_quad: int | None = None) -> np.ndarray:
    """Brute-force Gram matrix of the modal basis (or its derivatives) on
    [-1, 1] by Gauss quadrature: the oracle for the per-axis mass and
    stiffness matrices."""
    n_quad = n_quad or order + 2
    x, w = leggauss(n_quad)
    funcs = []
    for k in range(order - 1):
        p = shen_poly(k)
        funcs.append(p.deriv()(x) if deriv else p(x))
    funcs = np.array(funcs)
    return np.einsum("q,mq,kq->mk", w, funcs, funcs)


def ref_mass_1d(order: int) -> np.ndarray:
    """Closed-form 1D mass matrix int psi_j psi_k dx of the modal basis on
    [-1, 1], dense (N-1, N-1): gamma_j^2 (2/(2j+1) + 2/(2j+5)) on the
    diagonal, -gamma_j gamma_{j+2} 2/(2j+5) on offsets +-2, zero elsewhere
    by Legendre orthogonality."""
    j = np.arange(order - 1)
    g = 1.0 / np.sqrt(4.0 * j + 6.0)
    out = np.diag(g**2 * (2.0 / (2 * j + 1) + 2.0 / (2 * j + 5)))
    off = -g[2:] * g[:-2] * 2.0 / (2 * j[:-2] + 5)
    out[j[:-2], j[:-2] + 2] = off
    out[j[:-2] + 2, j[:-2]] = off
    return out


def ref_dof_map(mesh) -> np.ndarray:
    """(element, local 2D mode) -> global dof, -1 for boundary-constrained
    local functions, shape (n_elements, (N+1)^2), from the per-axis
    numbering; element (ex, ey) is row ey * nex + ex and local mode (m, n)
    column m * (N+1) + n.  For the element-assembly oracles."""
    gx = mesh.ax.local_to_global[None, :, :, None]
    gy = mesh.ay.local_to_global[:, None, None, :]
    dofs = np.where((gx >= 0) & (gy >= 0), gx * mesh.ay.n_dofs + gy, -1)
    return dofs.reshape(mesh.n_elements, -1)
