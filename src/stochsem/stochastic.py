"""Q-Wiener increments by truncated Karhunen-Loeve expansion.

The driving noise W is simulated as

    dW ~ sigma * sum_{j,k=1..J} sqrt(q_jk * tau) * xi_jk * e_jk(x, y)

with eigenvalues q_jk = (j^2 + k^2)^(-s) (trace class for s > 1), Dirichlet
sine eigenfunctions e_jk(x,y) = 2 sin(j pi x) sin(k pi y) on the unit square
(L2-rescaled for general rectangles), and xi_jk independent standard normals.

Randomness is counter-based: each (sample, step, component) tuple selects a
disjoint Philox counter block keyed by the master seed, and the J x J normal
draws occupy fixed raster positions (j, k) inside it.  Identical inputs give
bit-identical increments under any execution order, which makes parallel
ensembles reproducible.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import L2Projector
from .basis import Basis1D
from .mesh import Mesh2D


@dataclass(frozen=True)
class QWienerSampler:
    """Truncated Karhunen-Loeve representation of the driving noise.

    Attributes
    ----------
    truncation : int
        Modes per direction J (J^2 retained modes).
    decay_exponent : float
        s >= 0 in q_jk = (j^2 + k^2)^(-s).
    amplitude : float
        Global scale sigma >= 0; sigma = 0 makes every increment zero.
    seed : int
        Master seed of the counter-based stream family, 0 <= seed < 2^64.
    shared : bool
        Whether one noise path drives all three equations of a sample
        (default) or each field gets an independent path.
    """

    truncation: int = 8
    decay_exponent: float = 2.0
    amplitude: float = 0.1
    seed: int = 0
    shared: bool = True

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer >= 0 and < 2**64, got {self.seed}")
        for key in ("decay_exponent", "amplitude"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {v}")

    def eigenvalues(self) -> np.ndarray:
        """q_jk table of shape (J, J); entry [j-1, k-1] holds mode (j, k)."""
        j = np.arange(1, self.truncation + 1, dtype=float)
        return (j[:, None] ** 2 + j[None, :] ** 2) ** (-self.decay_exponent)

    @cached_property
    def _eigenvalue_table(self) -> np.ndarray:
        """eigenvalues(), computed once per sampler and read-only."""
        q = self.eigenvalues()
        q.setflags(write=False)
        return q

    @cached_property
    def _stream(self):
        """One Philox bit generator, its Generator and the state dict that
        mode_normals re-keys it with: Philox(seed key, counter) as
        constructed, with an empty output buffer; each draw rewrites the
        counter in place (building a Philox reads OS entropy first)."""
        bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([self.seed, 0], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        return bitgen, np.random.Generator(bitgen), state


@dataclass(frozen=True)
class NoiseIncrement:
    """One sampled increment, projected onto the global space."""

    n: int
    coeffs: np.ndarray


def spectrum(sampler: QWienerSampler):
    """Retained modes as (j, k, q_jk) tuples, sorted by descending q_jk.

    Ties break on (j, k) so the table order is deterministic.
    """
    q = sampler.eigenvalues()
    rows = [(j + 1, k + 1, float(q[j, k]))
            for j in range(sampler.truncation)
            for k in range(sampler.truncation)]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows


def mode_normals(sampler: QWienerSampler, sample_id: int, n: int,
                 component: int | None = None) -> np.ndarray:
    """The J x J standard-normal draws of one (sample, step) tuple.

    The Philox counter encodes (component, step, sample) in its high words,
    so distinct tuples use disjoint counter blocks; the (j, k) draw sits at a
    fixed raster position within the block.  Every draw re-keys the
    sampler's one Philox generator, so one sampler must not draw from two
    threads at once.
    """
    if sample_id < 0 or n < 0:
        raise ValueError("sample_id and step index must be nonnegative")
    comp = 0 if component is None else component + 1
    bitgen, gen, state = sampler._stream
    state["state"]["counter"][1:] = comp, n, sample_id
    bitgen.state = state
    J = sampler.truncation
    return gen.standard_normal((J, J))


def mode_coefficients(sampler: QWienerSampler, sample_id: int, n: int, tau: float,
                      component: int | None = None) -> np.ndarray:
    """KL coefficients sigma * sqrt(q_jk * tau) * xi_jk of one increment."""
    scale = _mode_scale(sampler, tau)
    if sampler.amplitude == 0.0:
        return np.zeros((sampler.truncation, sampler.truncation))
    return scale * mode_normals(sampler, sample_id, n, component)


def _mode_scale(sampler: QWienerSampler, tau: float) -> np.ndarray:
    """sigma * sqrt(q_jk * tau), the (J, J) scale of the normal draws."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return sampler.amplitude * np.sqrt(sampler._eigenvalue_table * tau)


def _sine_modes(J: int, lo: float, hi: float, pts: np.ndarray) -> np.ndarray:
    """sqrt(2/L) sin(j pi (x - lo)/L) for j = 1..J at 1D points, shape (J, P)."""
    j = np.arange(1, J + 1, dtype=float)
    unit = (pts - lo) / (hi - lo)
    return np.sqrt(2.0 / (hi - lo)) * np.sin(np.pi * j[:, None] * unit[None, :])


class NoiseWorkspace:
    """Per-axis mode loads of the KL field.

    The load (dW, v) of an increment on the basis functions v is linear in
    its mode coefficients c.  Each mode e_jk(x, y) = s_j(x) s_k(y) is
    separable and so is the quadrature grid, so its load is ex[:, j] (x)
    ey[:, k] with ex[gx, j] = int s_j phi_gx along x (on the projector's
    tables), and the load of the whole field is the (n1d_x, n1d_y) matrix
    ex @ c @ ey^T.  The time loop uses that load as it is: for v in the
    discrete space, (P_h dW, v) = (dW, v).  The two tables are built once
    per discretization (one, ey is ex, on a shared axis); a projection adds
    the projector's per-axis mass solves.
    """

    def __init__(self, sampler: QWienerSampler, mesh: Mesh2D, basis: Basis1D,
                 projector: L2Projector | None = None):
        self.sampler, self.mesh, self.basis = sampler, mesh, basis
        self.projector = projector if projector is not None else L2Projector(mesh, basis)
        J = sampler.truncation
        quad = self.projector.quad
        Bx, _, By, _ = quad.tables
        x0, x1, y0, y1 = mesh.domain
        self.ex, self.ey = mesh.per_axis(
            lambda B, w, a, b, q: B @ (w[:, None] * _sine_modes(J, a, b, q).T),
            (Bx, quad.wx, x0, x1, quad.x), (By, quad.wy, y0, y1, quad.y))
        self._eyt = np.ascontiguousarray(self.ey.T)     # load's right operand, C-contiguous

    def load(self, coeffs_jk: np.ndarray) -> np.ndarray:
        """Loads (..., n1d_x, n1d_y) of mode coefficients (..., J, J)."""
        return self.ex @ coeffs_jk @ self._eyt

    def project_modes(self, coeffs_jk: np.ndarray) -> np.ndarray:
        """Projected coefficients (..., n_global) of mode coefficients
        (..., J, J); a stack shares the per-axis mass solves."""
        proj = self.projector.project_load(self.load(coeffs_jk))
        return proj.reshape(*proj.shape[:-2], -1)


def sample_increments(sampler: QWienerSampler, sample_ids, n: int, tau: float,
                      workspace: NoiseWorkspace, components=(None,)) -> np.ndarray:
    """Loads (W^n - W^{n-1}, v) of the increments of a batch of samples,
    shape (len(sample_ids), len(components), n1d_x, n1d_y); component None
    is the path shared by all fields.

    Entry [b, c] is bitwise the load of the increment that sample_increment
    draws for (sample_ids[b], components[c]): the batch's draws fill one
    array, scaled by sigma * sqrt(q_jk * tau) at once, as mode_coefficients
    scales one draw.
    """
    J = sampler.truncation
    xi = np.zeros((len(sample_ids), len(components), J, J))
    if sampler.amplitude != 0.0:
        for b, sid in enumerate(sample_ids):
            for c, comp in enumerate(components):
                xi[b, c] = mode_normals(sampler, sid, n, comp)
    return workspace.load(_mode_scale(sampler, tau) * xi)


def sample_increment(sampler: QWienerSampler, sample_id: int, n: int, tau: float,
                     mesh: Mesh2D, basis: Basis1D,
                     workspace: NoiseWorkspace | None = None,
                     component: int | None = None) -> NoiseIncrement:
    """Sample the increment W^n - W^{n-1} and project it onto the space.

    Bit-identical for identical (sampler, sample_id, n, tau, discretization);
    pass a NoiseWorkspace to amortize the projection over many draws.
    """
    if sampler.amplitude == 0.0:
        return NoiseIncrement(n=n, coeffs=np.zeros(mesh.n_global))
    if workspace is None:
        workspace = NoiseWorkspace(sampler, mesh, basis)
    return NoiseIncrement(n=n, coeffs=workspace.project_modes(
        mode_coefficients(sampler, sample_id, n, tau, component)))
