"""Linearized Crank-Nicolson time stepping for the coupled system.

One step advances each field phi in {u, v, w} by a single linear solve

    L_phi phi^n = R_phi phi^{n-1} - tau * wp * e_i * load(f(u*, v*))
                  + tau * load(forcing_i(t_{n-1/2})) + noise terms,

with L_phi = (1 + (tau/2) r_phi) Mass + (tau/2)(xi Advection + zeta Diffusion)
(r_w = r, r_u = r_v = 0) and R_phi its mirror with negated tau/2 terms.

The coefficients are constants and the mesh is a tensor product, so every
scheme operator is a Kronecker sum of dense per-axis matrices (Lynch, Rice &
Thomas 1964).  With the coefficients of a field reshaped to X of shape
(n1d_x, n1d_y) (global dof gx * n1d_y + gy),

    L vec X = Ox X My^T + Mx X Oy^T,
    Ox = (1 + (tau/2) r_phi) Mx + (tau/2)(zeta Kx + xi Ax),
    Oy = (tau/2)(zeta Ky + xi Ay),

with Mx, Kx, Ax the 1D mass, stiffness and advection matrices
(Quadrature2D.axis_matrices; likewise for y).  u and v share their
operators (the "uv" family), w has its own ("w").  No 2D operator is built.

L vec X = R is the Sylvester equation

    (Mx^-1 Ox) X + X (My^-1 Oy)^T = Mx^-1 R My^-T,

solved by Bartels & Stewart (CACM 15(9), 1972): build_scheme takes one real
Schur form Mx^-1 Ox = U Ta U^T, My^-1 Oy = V Tb V^T per family and folds
U^T Mx^-1 and V^T My^-1 into one matrix per axis, so a solve is four matrix
products and one LAPACK dtrsyl on the quasi-triangular (Ta, Tb).  (Fast
diagonalization by eigenvectors is not used: the advection-diffusion pencil's
eigenvectors are too ill-conditioned.)  A dtrsyl that perturbs a near-zero
eigenvalue sum (info != 0) or rescales against overflow (scale != 1) is a
failure, never a silent result: in build_scheme's trial solve it raises
SchemeError, in a step SolverFailure.  Every solve must also pass the
relative residual gate SOLVE_RTOL, measured against the per-axis apply of
the same left operator.

The nonlinearity is evaluated explicitly.  Two time levels are supported:
"lagged" uses (u, v) at t_{n-1} literally; "extrapolated" (the default) uses
the second-order extrapolation (3 phi^{n-1} - phi^{n-2})/2 toward the half
level, which restores the scheme's O(tau^2) accuracy (the lagged evaluation
measurably degrades to first order; see the convergence tests).  The first
step of an extrapolated run falls back to lagged.

Noise enters through the process values at the step endpoints: the "paper"
convention adds load(W^{n-1} - W^n) to the right-hand side (the increment is
subtracted from the dynamics), the "increment" convention flips the sign to
the conventional +dW forcing.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
# Nothing in this package calls scipy.sparse.linalg; the module is kept bound
# here because perfbench/spans.py replaces `timestepper.spla` when it traces.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import cho_factor, cho_solve, schur
from scipy.linalg.lapack import dtrsyl

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import ModelSpec, nonlinear_f
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increment

SOLVE_RTOL = 1e-10

NOISE_CONVENTIONS = ("paper", "increment")
NONLINEARITY_TIMES = ("extrapolated", "lagged")

# field families sharing one left/right operator pair: (name, field indices)
FAMILIES = (("uv", slice(0, 2)), ("w", slice(2, 3)))


class SchemeError(RuntimeError):
    """Left operator is singular."""


class SolverFailure(RuntimeError):
    """A linear solve failed or exceeded the residual tolerance."""


class DivergenceError(RuntimeError):
    """The state picked up non-finite entries."""


@dataclass
class StepReport:
    """Per-step diagnostics: relative solve residuals and the energy norm
    (None in the reports `run` discards)."""

    step: int
    residuals: tuple[float, float, float]
    energy: float | None


@dataclass(frozen=True, eq=False)
class KroneckerSum:
    """The operator L vec X = ox X my^T + mx X oy^T on coefficient matrices X
    of shape (..., n1d_x, n1d_y); `L @ X` applies it."""

    ox: np.ndarray
    oy: np.ndarray
    mx: np.ndarray
    my: np.ndarray

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return self.ox @ X @ self.my.T + self.mx @ X @ self.oy.T


class SchurFactor:
    """Bartels-Stewart factor of a KroneckerSum L with SPD mx, my.

    With mx^-1 ox = U ta U^T and my^-1 oy = V tb V^T (real Schur forms),
    L vec X = R becomes ta Y + Y tb^T = px R py^T for Y = U^T X V, where
    px = U^T mx^-1 and py = V^T my^-1.
    """

    def __init__(self, op: KroneckerSum):
        fx, fy = cho_factor(op.mx), cho_factor(op.my)
        self.ta, self.u = schur(cho_solve(fx, op.ox), output="real")
        self.tb, self.v = schur(cho_solve(fy, op.oy), output="real")
        self.px = cho_solve(fx, self.u).T
        self.py = cho_solve(fy, self.v).T

    def solve(self, R: np.ndarray):
        """Solution X of L @ X = R for R of shape (k, n1d_x, n1d_y), and
        dtrsyl's (scale, info) for each of the k right-hand sides."""
        F = self.px @ R @ self.py.T
        status = []
        for i in range(len(F)):
            F[i], scale, info = dtrsyl(self.ta, self.tb, F[i], trana="N", tranb="T")
            status.append((scale, info))
        return self.u @ F @ self.v.T, status


@dataclass
class SchemeOperators:
    """Per-axis operators and Schur factors of one (mesh, spec, tau) scheme.

    mass is (Mx, My); stiffness the unit diffusion (for the energy norm);
    left, right and factors map each field family ("uv", "w") to its
    Crank-Nicolson operators and the Schur factor of its left operator.
    """

    mesh: Mesh2D
    basis: Basis1D
    tau: float
    mass: tuple[np.ndarray, np.ndarray]
    stiffness: KroneckerSum
    left: dict = dc_field(default_factory=dict)
    right: dict = dc_field(default_factory=dict)
    factors: dict = dc_field(default_factory=dict)
    quad: Quadrature2D = None
    projector: L2Projector = None
    nonlinearity_time: str = "extrapolated"
    noise_convention: str = "paper"


def build_scheme(mesh: Mesh2D, basis: Basis1D, spec: ModelSpec, tau: float,
                 nonlinearity_time: str = "extrapolated",
                 noise_convention: str = "paper") -> SchemeOperators:
    """Build the per-axis operators on the projector's quadrature grid and
    the Schur factors of the left-hand sides.

    u and v share identical left/right operators; w folds the reaction term
    into the mass coefficient of both sides.  A left operator that dtrsyl
    finds singular raises SchemeError.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if nonlinearity_time not in NONLINEARITY_TIMES:
        raise ValueError(f"unknown nonlinearity_time {nonlinearity_time!r}")
    if noise_convention not in NOISE_CONVENTIONS:
        raise ValueError(f"unknown noise convention {noise_convention!r}")

    projector = L2Projector(mesh, basis)
    quad = projector.quad
    (mx, kx, ax), (my, ky, ay) = quad.axis_matrices()
    half = 0.5 * tau

    def side(sign, r):   # Mass +- (tau/2)(r Mass + zeta Diffusion + xi Advection)
        return KroneckerSum(
            (1.0 + sign * half * r) * mx + sign * half * (spec.zeta * kx + spec.xi * ax),
            sign * half * (spec.zeta * ky + spec.xi * ay), mx, my)

    ops = SchemeOperators(
        mesh=mesh, basis=basis, tau=tau, mass=(mx, my),
        stiffness=KroneckerSum(kx, ky, mx, my), quad=quad, projector=projector,
        nonlinearity_time=nonlinearity_time, noise_convention=noise_convention,
    )
    for fam, r in (("uv", 0.0), ("w", spec.r)):
        ops.left[fam], ops.right[fam] = side(1, r), side(-1, r)
        ops.factors[fam] = SchurFactor(ops.left[fam])
        # dtrsyl reports info 1 exactly when it must perturb a (near-)zero
        # eigenvalue sum, whatever the right-hand side
        _, [(_, info)] = ops.factors[fam].solve(np.zeros((1, len(mx), len(my))))
        if info != 0:
            raise SchemeError(
                f"left operator of field family {fam} is singular for tau={tau}, "
                f"mesh {mesh.nex}x{mesh.ney} order {mesh.order} "
                f"(dtrsyl info {info})")
    return ops


def _noise_fields(noise, n: int):
    """Validate a noise argument: shared (n,) or per-field (3, n); None is 0."""
    if noise is None:
        return 0.0
    arr = np.asarray(noise, dtype=float)
    if arr.shape not in ((n,), (3, n)):
        raise ValueError(f"noise array has shape {arr.shape}, expected (3, {n}) or ({n},)")
    return arr


def step(ops: SchemeOperators, spec: ModelSpec, state: StateVector,
         noise_n=None, noise_nm1=None, prev_state: StateVector | None = None,
         step_index: int = 0, *, _energy: bool = True) -> tuple[StateVector, StepReport]:
    """Advance the state one step of size ops.tau.

    noise_n / noise_nm1 are the projected coefficient arrays of the driving
    process at the two step endpoints ((3, n) or shared (n,), or None for a
    deterministic step).  prev_state supplies phi^{n-2} for the extrapolated
    nonlinearity level; when absent the nonlinearity is lagged.  `run` passes
    _energy=False when it discards the report, which then carries energy None.
    """
    tau = ops.tau
    quad = ops.quad
    t_half = state.t + tau / 2.0
    mx, my = ops.mass
    shape = (len(mx), len(my))
    old = state.stacked().reshape(3, *shape)

    rhs = np.empty_like(old)
    for fam, idx in FAMILIES:
        rhs[idx] = ops.right[fam] @ old[idx]

    if spec.wp != 0.0 and any(spec.e):
        u, v = state.u, state.v
        if ops.nonlinearity_time == "extrapolated" and prev_state is not None:
            # the extrapolation is linear, so it is done on coefficients
            u = 1.5 * u - 0.5 * prev_state.u
            v = 1.5 * v - 0.5 * prev_state.v
        nl_load = quad.load(nonlinear_f(spec, quad.values(u), quad.values(v))).reshape(shape)
        for idx in range(3):
            rhs[idx] -= tau * spec.wp * spec.e[idx] * nl_load

    if spec.forcing is not None:
        for idx in range(3):
            rhs[idx] += tau * quad.load(quad.sample(spec.forcing[idx], t_half)).reshape(shape)

    if noise_n is not None or noise_nm1 is not None:
        zn = _noise_fields(noise_n, state.n)
        zm = _noise_fields(noise_nm1, state.n)
        delta = zm - zn if ops.noise_convention == "paper" else zn - zm
        # shared (n,) noise broadcasts over the three fields
        rhs += mx @ np.reshape(delta, (-1, *shape)) @ my.T

    sol = np.empty_like(rhs)
    gap = np.empty_like(rhs)
    status = []
    for fam, idx in FAMILIES:
        sol[idx], fam_status = ops.factors[fam].solve(rhs[idx])
        gap[idx] = ops.left[fam] @ sol[idx] - rhs[idx]
        status += fam_status
    residuals = []
    for name, (scale, info), g, b in zip("uvw", status, np.linalg.norm(gap, axis=(1, 2)),
                                         np.linalg.norm(rhs, axis=(1, 2))):
        if info != 0 or scale != 1.0:
            raise SolverFailure(f"solve for field {name} at step {step_index}: "
                                f"dtrsyl info {info}, scale {scale}")
        res = float(g / (b if b > 0 else 1.0))
        if res > SOLVE_RTOL:
            raise SolverFailure(
                f"solve for field {name} at step {step_index}: "
                f"relative residual {res:.3e} exceeds {SOLVE_RTOL:.1e}")
        residuals.append(res)

    if not np.isfinite(sol).all():
        raise DivergenceError(f"non-finite state after step {step_index}")
    new_state = StateVector(*sol.reshape(3, -1), t=state.t + tau)
    energy = energy_norm(ops, spec, new_state, tau) if _energy else None
    report = StepReport(step=step_index, residuals=tuple(residuals), energy=energy)
    return new_state, report


def energy_norm(ops: SchemeOperators, spec: ModelSpec, state: StateVector,
                tau: float) -> float:
    """Discrete weighted energy norm used by the stability diagnostic.

    sqrt( sum_phi  h1 * (phi' M phi) + (tau/2) * zeta * (phi' K phi) )
    with h1 = max(1, 1 + (tau/2) * r) and K the unit-coefficient
    diffusion operator, both applied axis by axis.
    """
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    mx, my = ops.mass
    F = state.stacked().reshape(3, len(mx), len(my))
    total = h1 * float(np.sum(F * (mx @ F @ my.T)))
    total += 0.5 * tau * spec.zeta * float(np.sum(F * (ops.stiffness @ F)))
    return float(np.sqrt(total))


@dataclass
class Trajectory:
    """Result of one sample path: final state, diagnostics, snapshots."""

    final: StateVector
    reports: list
    snapshots: dict   # time -> StateVector


def _resolve_steps(times, tau: float, n_steps: int, what: str) -> dict:
    """Map requested times to step indices, validating divisibility."""
    out = {}
    for t in times:
        k = int(round(t / tau))
        if not (0 <= k <= n_steps) or abs(k * tau - t) > 1e-9 * max(tau, abs(t), 1.0):
            raise ValueError(f"{what} time {t} is not a multiple of tau={tau} within [0, T]")
        out[k] = float(t)
    return out


def run(spec: ModelSpec, mesh: Mesh2D, basis: Basis1D, tau: float, T: float,
        sampler: QWienerSampler | None = None, sample_id: int = 0,
        snapshot_times=None, ops: SchemeOperators | None = None,
        noise_workspace: NoiseWorkspace | None = None,
        record_reports: bool = True,
        nonlinearity_time: str = "extrapolated",
        noise_convention: str = "paper") -> Trajectory:
    """Integrate one trajectory from t=0 to t=T with steps of size tau.

    T/tau must be integral within rounding.  Passing prebuilt ops (and a
    noise workspace) amortizes assembly and factorization across samples;
    identical inputs produce bit-identical trajectories.
    """
    if T < 0:
        raise ValueError(f"final time must be >= 0, got {T}")
    n_steps = int(round(T / tau))
    if abs(n_steps * tau - T) > 1e-9 * max(T, tau):
        raise ValueError(f"T={T} is not an integral multiple of tau={tau}")
    if ops is None:
        ops = build_scheme(mesh, basis, spec, tau,
                           nonlinearity_time=nonlinearity_time,
                           noise_convention=noise_convention)
    state = StateVector(ops.projector.project(spec.init[0]),
                        ops.projector.project(spec.init[1]),
                        ops.projector.project(spec.init[2]), t=0.0)

    snap_at = _resolve_steps(snapshot_times or (), tau, n_steps, "snapshot")
    snapshots = {snap_at[0]: state.copy()} if 0 in snap_at else {}

    noisy = sampler is not None and sampler.amplitude > 0.0
    if noisy and noise_workspace is None:
        noise_workspace = NoiseWorkspace(sampler, mesh, basis, projector=ops.projector)

    w_proc = None
    if noisy:   # one shared path is kept as a single (n,) array
        w_proc = np.zeros(mesh.n_global if sampler.shared else (3, mesh.n_global))
    reports = []
    prev = None
    for k in range(1, n_steps + 1):
        if noisy:
            if sampler.shared:
                w_next = w_proc + sample_increment(sampler, sample_id, k, tau, mesh, basis,
                                                   workspace=noise_workspace).coeffs
            else:
                w_next = w_proc + np.stack([
                    sample_increment(sampler, sample_id, k, tau, mesh, basis,
                                     workspace=noise_workspace, component=comp).coeffs
                    for comp in range(3)])
        else:
            w_next = None
        new_state, report = step(ops, spec, state, w_next, w_proc, prev_state=prev,
                                 step_index=k, _energy=record_reports)
        if record_reports:
            reports.append(report)
        prev = state
        state = new_state
        w_proc = w_next
        if k in snap_at:
            snapshots[snap_at[k]] = state.copy()

    return Trajectory(final=state, reports=reports, snapshots=snapshots)
