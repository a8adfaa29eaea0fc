"""Legendre polynomials, Gauss quadrature and the boundary-vanishing modal basis.

The 1D modal basis on the reference interval [-1, 1] is

    psi_k(x) = gamma_k * (L_k(x) - L_{k+2}(x)),    gamma_k = (4k + 6)^(-1/2),

for k = 0..N-2, where L_k are Legendre polynomials.  Every psi_k vanishes at
both endpoints, the 1D stiffness matrix int psi_j' psi_k' dx is the identity,
and the 1D mass matrix int psi_j psi_k dx has nonzeros only on offsets
{-2, 0, +2} (Shen 1994).  This module tabulates the modes and carries the
N + 2 point Gauss rule; the scheme's per-axis matrices are integrated with
it in `assembly.Quadrature2D.axis_matrices`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


def gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Exact for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of quadrature points, n >= 1.

    Returns
    -------
    (nodes, weights) : pair of (n,) arrays
    """
    if n < 1:
        raise ValueError(f"quadrature point count must be >= 1, got {n}")
    return leggauss(n)


def legendre_table(kmax: int, x):
    """Values and derivatives of L_0..L_kmax at the points x.

    Derivatives come from the recurrence L'_{k+1} = L'_{k-1} + (2k+1) L_k,
    which is stable at high degree.

    Returns
    -------
    (L, dL) : arrays of shape (kmax+1,) + x.shape
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L = np.zeros((kmax + 1,) + x.shape)
    dL = np.zeros_like(L)
    L[0] = 1.0
    if kmax >= 1:
        L[1] = x
        dL[1] = 1.0
    for k in range(1, kmax):
        L[k + 1] = ((2 * k + 1) * x * L[k] - k * L[k - 1]) / (k + 1)
        dL[k + 1] = dL[k - 1] + (2 * k + 1) * L[k]
    return L, dL


@dataclass(frozen=True)
class Basis1D:
    """Modal basis of order N on [-1, 1] with its quadrature rule.

    Attributes
    ----------
    order : int
        Polynomial degree N per element (N >= 2); the basis holds the
        N-1 modes psi_0 .. psi_{N-2}.
    gamma : (N-1,) array
        Normalization constants gamma_k = (4k+6)^(-1/2).
    quad_nodes, quad_weights : (n_quad,) arrays
        Gauss-Legendre rule with n_quad = N+2 points, so that all products
        of two basis functions (degree <= 2N) are integrated exactly.
    """

    order: int
    gamma: np.ndarray
    quad_nodes: np.ndarray
    quad_weights: np.ndarray

    @property
    def n_quad(self) -> int:
        return len(self.quad_nodes)


def make_basis(order: int) -> Basis1D:
    """Construct a Basis1D of the given order with its N+2 point Gauss rule
    (exact for the constant-coefficient mass, stiffness and advection
    products)."""
    if order < 2:
        raise ValueError(f"basis order must be >= 2, got {order}")
    nodes, weights = gauss_rule(order + 2)
    gamma = 1.0 / np.sqrt(4.0 * np.arange(order - 1) + 6.0)
    return Basis1D(order=order, gamma=gamma, quad_nodes=nodes, quad_weights=weights)


def shen_table(basis: Basis1D, x):
    """Values and derivatives of all modes at the points x.

    Returns
    -------
    (P, dP) : arrays of shape (N-1, len(x))
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L, dL = legendre_table(basis.order, x)
    g = basis.gamma[:, None]
    return g * (L[:-2] - L[2:]), g * (dL[:-2] - dL[2:])
