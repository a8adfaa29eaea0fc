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
(Quadrature2D.axis_matrices; likewise for y).  Oy does not depend on r_phi,
so one KroneckerSum per side serves the fields' stack (3, n1d_x, n1d_y),
with the x-axis stack (Ox_u, Ox_v, Ox_w), Ox_u = Ox_v.  No 2D operator is
built.

L vec X = R is the Sylvester equation

    (Mx^-1 Ox) X + X (My^-1 Oy)^T = Mx^-1 R My^-T,

solved by Bartels & Stewart (CACM 15(9), 1972): build_scheme takes the real
Schur forms My^-1 Oy = V Tb V^T and Mx^-1 Ox = U Ta U^T (one for u and v,
one for w) and folds U^T Mx^-1 and V^T My^-1 into one matrix per axis, so
a solve is four stacked matrix products and one LAPACK dtrsyl per field on
the quasi-triangular (Ta, Tb).  (Fast
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

Noise enters as the load of its increment, (W^n - W^{n-1}, v) on the test
functions v: for v in the discrete space that is the load of the projected
increment too, so the increment is never projected.  The "paper"
convention subtracts the load from the right-hand side, the "increment"
convention adds it (the conventional +dW forcing).

`step` and the time loop (`advance`) work on batches: the states of B
samples are one array (B, 3, n1d_x, n1d_y) (a StateBatch), their noise
loads one array (B, 1 | 3, n1d_x, n1d_y) (one path shared by the fields, or
one per field).  A step makes one right-hand-side apply, one solve and one
residual gate for the whole stack (np.matmul broadcasts) and one load of
the nonlinearity with the forcings (staged once per scheme,
model.stage_forcing); only dtrsyl runs once per sample and field.  The
checks hold per sample and field, and a failure names its sample.  Every
per-sample operation is the same BLAS or LAPACK call whatever B is, so a
sample's trajectory does not depend on its batch: `run` is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Nothing in this package calls scipy.sparse.linalg; the module is kept bound
# here because perfbench/spans.py replaces `timestepper.spla` when it traces.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import cho_factor, cho_solve, schur
from scipy.linalg.lapack import dtrsyl

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import ModelSpec, SingularNonlinearity, nonlinear_f, stage_forcing
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increments

SOLVE_RTOL = 1e-10

NOISE_CONVENTIONS = ("paper", "increment")
NONLINEARITY_TIMES = ("extrapolated", "lagged")


class SchemeError(RuntimeError):
    """Left operator is singular."""


class SolverFailure(RuntimeError):
    """A linear solve failed or exceeded the residual tolerance."""


class DivergenceError(RuntimeError):
    """The state picked up non-finite entries."""


@dataclass
class StepReport:
    """One step of a Trajectory: the relative solve residuals per field and
    the energy norm of the new state."""

    step: int
    residuals: tuple[float, float, float]
    energy: float


@dataclass(frozen=True, eq=False)
class KroneckerSum:
    """The operator L vec X = ox X my^T + mx X oy^T on coefficient matrices X
    (..., n1d_x, n1d_y), `L @ X`; a stack ox (k, ...) acts by field on X (..., k, ...)."""

    ox: np.ndarray
    oy: np.ndarray
    mx: np.ndarray
    my: np.ndarray

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return self.ox @ X @ self.my.T + self.mx @ X @ self.oy.T


class SchurFactor:
    """Bartels-Stewart factor of a field-stacked KroneckerSum L with SPD mx, my.

    With my^-1 oy = V tb V^T and mx^-1 ox[f] = U_f ta_f U_f^T (real Schur
    forms: one for y, one per distinct ox[f]), L vec X = R becomes, for
    field f, ta_f Y + Y tb^T = px_f R py^T with Y = U_f^T X V,
    px_f = U_f^T mx^-1 and py = V^T my^-1.
    """

    def __init__(self, op: KroneckerSum):
        fx, fy = cho_factor(op.mx), cho_factor(op.my)
        self.tb, self.v = schur(cho_solve(fy, op.oy), output="real")
        self.py = cho_solve(fy, self.v).T
        forms = {ox.tobytes(): ox for ox in op.ox}      # the distinct ox
        forms = {k: schur(cho_solve(fx, ox), output="real") for k, ox in forms.items()}
        self.ta, u = zip(*(forms[ox.tobytes()] for ox in op.ox))
        # each U_f keeps its memory order: the BLAS calls do not depend on the stack
        self.u = np.stack([m.T for m in u]).transpose(0, 2, 1)
        self.px = np.stack([cho_solve(fx, m).T for m in u])

    def solve(self, R: np.ndarray):
        """Solution X of L @ X = R for a stack R of shape (..., k, n1d_x, n1d_y)
        (k fields), and dtrsyl's scale and info for each right-hand side, as
        arrays of shape R.shape[:-2]."""
        F = self.px @ R @ self.py.T
        flat = F.reshape(-1, *F.shape[-2:])
        scale, info = np.empty(len(flat)), np.empty(len(flat), dtype=int)
        for i, f in enumerate(flat):
            flat[i], scale[i], info[i] = dtrsyl(self.ta[i % len(self.ta)], self.tb, f,
                                                trana="N", tranb="T")
        return self.u @ F @ self.v.T, scale.reshape(F.shape[:-2]), info.reshape(F.shape[:-2])


@dataclass
class SchemeOperators:
    """Per-axis operators and Schur factors of one (mesh, spec, tau) scheme.

    mass is (Mx, My); stiffness the unit diffusion (for the energy norm);
    left and right are the fields' Crank-Nicolson operators, with x-axis
    stacks (Ox_u, Ox_v, Ox_w), and factor the SchurFactor of left.
    staged_forcing is the last forcing a step met, staged on quad's grid.
    """

    mesh: Mesh2D
    basis: Basis1D
    tau: float
    mass: tuple[np.ndarray, np.ndarray]
    stiffness: KroneckerSum
    left: KroneckerSum
    right: KroneckerSum
    factor: SchurFactor
    quad: Quadrature2D
    projector: L2Projector
    nonlinearity_time: str = "extrapolated"
    noise_convention: str = "paper"
    staged_forcing: tuple = (None, None)


def build_scheme(mesh: Mesh2D, basis: Basis1D, spec: ModelSpec, tau: float,
                 nonlinearity_time: str = "extrapolated",
                 noise_convention: str = "paper") -> SchemeOperators:
    """Build the per-axis operators on the projector's quadrature grid and
    the Schur factors of the left-hand sides.

    u and v share identical left/right x-axis matrices; w folds the reaction
    term into the mass coefficient of both sides.  A left operator that
    dtrsyl finds singular raises SchemeError naming the first such field.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if nonlinearity_time not in NONLINEARITY_TIMES:
        raise ValueError(f"unknown nonlinearity_time {nonlinearity_time!r}")
    if noise_convention not in NOISE_CONVENTIONS:
        raise ValueError(f"unknown noise convention {noise_convention!r}")

    projector = L2Projector(mesh, basis)
    quad = projector.quad
    (mx, kx, ax), (my, ky, ay) = quad.axis_matrices()
    half = 0.5 * tau

    def side(sign):   # Mass +- (tau/2)(r_phi Mass + zeta Diffusion + xi Advection)
        return KroneckerSum(
            np.stack([(1.0 + sign * half * r) * mx + sign * half * (spec.zeta * kx + spec.xi * ax)
                      for r in (0.0, 0.0, spec.r)]),     # r_u, r_v, r_w
            sign * half * (spec.zeta * ky + spec.xi * ay), mx, my)

    left = side(1)
    ops = SchemeOperators(
        mesh=mesh, basis=basis, tau=tau, mass=(mx, my),
        stiffness=KroneckerSum(kx, ky, mx, my), left=left, right=side(-1),
        factor=SchurFactor(left), quad=quad, projector=projector,
        nonlinearity_time=nonlinearity_time, noise_convention=noise_convention,
    )
    # dtrsyl reports info 1 exactly when it must perturb a (near-)zero
    # eigenvalue sum, whatever the right-hand side
    _, _, info = ops.factor.solve(np.zeros((3, len(mx), len(my))))
    if info.any():
        f = int(np.argmax(info != 0))
        raise SchemeError(
            f"left operator of field {'uvw'[f]} is singular for tau={tau}, "
            f"mesh {mesh.nex}x{mesh.ney} order {mesh.order} (dtrsyl info {info[f]})")
    return ops


@dataclass
class StateBatch:
    """The states of B samples at one time level: the layout `step` and the
    time loop work on.

    coeffs has shape (B, 3, n1d_x, n1d_y): sample, field (u, v, w), then the
    field's coefficient matrix (global dof gx * n1d_y + gy).  sample_ids
    name the samples in failures (None when they have no ids).
    """

    coeffs: np.ndarray
    t: float = 0.0
    sample_ids: tuple | None = None

    def state(self, b: int) -> StateVector:
        """Sample b as a StateVector (views of coeffs)."""
        return StateVector(*self.coeffs[b].reshape(3, -1), t=self.t)


def _tag(exc: Exception, state: StateBatch, b: int) -> Exception:
    """exc with the id of the batch's sample b attached as exc.sample_id."""
    exc.sample_id = None if state.sample_ids is None else state.sample_ids[b]
    return exc


def step(ops: SchemeOperators, spec: ModelSpec, state: StateBatch, noise=None,
         prev_state: StateBatch | None = None, step_index: int = 0):
    """Advance a batch of states, whose samples advance together, one step
    of size ops.tau.

    noise is the load of the batch's noise increments (sample_increments),
    shape (B, 1 | 3, n1d_x, n1d_y), or None for a deterministic step.
    prev_state supplies phi^{n-2} for the extrapolated nonlinearity level;
    when absent the nonlinearity is lagged.

    Returns the new StateBatch and the relative solve residuals, shape
    (B, 3).  A failure of one sample carries its id as sample_id.
    """
    tau, quad = ops.tau, ops.quad
    t_half = state.t + tau / 2.0
    old = state.coeffs

    rhs = ops.right @ old

    samples = []    # the nonlinearity (B samples) and the forcings, loaded at once
    nonlinear = spec.wp != 0.0 and any(spec.e)
    if nonlinear:
        u, v = old[:, 0], old[:, 1]
        if ops.nonlinearity_time == "extrapolated" and prev_state is not None:
            # the extrapolation is linear, so it is done on coefficients
            u = 1.5 * u - 0.5 * prev_state.coeffs[:, 0]
            v = 1.5 * v - 0.5 * prev_state.coeffs[:, 1]
        U, V = quad.values(u), quad.values(v)
        try:
            samples.append(nonlinear_f(spec, U, V))
        except SingularNonlinearity as exc:
            for b in range(len(U)):     # name the first sample at the pole
                try:
                    nonlinear_f(spec, U[b], V[b])
                except SingularNonlinearity:
                    raise _tag(exc, state, b) from None
            raise
    if spec.forcing is not None:
        staged = ops.staged_forcing     # read once: another thread may restage ops
        if staged[0] is not spec.forcing:
            staged = ops.staged_forcing = (spec.forcing, stage_forcing(spec.forcing, *quad.grid))
        samples.append(quad.finite(staged[1](t_half)))
    if samples:
        loads = quad.load(np.concatenate(samples))
        if nonlinear:
            rhs -= (tau * spec.wp * np.array(spec.e))[:, None, None] * loads[:len(old), None]
        if spec.forcing is not None:
            rhs += tau * loads[-3:]

    if noise is not None:
        # a shared path (one noise load per sample) broadcasts over the fields
        if ops.noise_convention == "paper":
            rhs -= noise
        else:
            rhs += noise

    sol, scale, info = ops.factor.solve(rhs)
    gap = ops.left @ sol - rhs
    bnorm = np.linalg.norm(rhs, axis=(2, 3))
    residuals = np.linalg.norm(gap, axis=(2, 3)) / np.where(bnorm > 0, bnorm, 1.0)
    bad = (info != 0) | (scale != 1.0)
    failed = bad | (residuals > SOLVE_RTOL)
    if failed.any():
        b, f = np.argwhere(failed)[0]
        why = (f"dtrsyl info {info[b, f]}, scale {scale[b, f]}" if bad[b, f] else
               f"relative residual {residuals[b, f]:.3e} exceeds {SOLVE_RTOL:.1e}")
        raise _tag(SolverFailure(f"solve for field {'uvw'[f]} at step {step_index}: {why}"),
                   state, b)

    if not np.isfinite(sol).all():
        b, f = np.argwhere(~np.isfinite(sol).all(axis=(2, 3)))[0]
        raise _tag(DivergenceError(f"non-finite state after step {step_index} "
                                   f"(field {'uvw'[f]})"), state, b)
    return StateBatch(sol, state.t + tau, state.sample_ids), residuals


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


def initial_data(ops: SchemeOperators, spec: ModelSpec) -> np.ndarray:
    """The projected initial data, shape (3, n1d_x, n1d_y)."""
    mx, my = ops.mass
    return np.stack([ops.projector.project(f) for f in spec.init]).reshape(3, len(mx), len(my))


def advance(ops: SchemeOperators, spec: ModelSpec, init: np.ndarray, T: float,
            sample_ids, sampler: QWienerSampler | None = None,
            noise_workspace: NoiseWorkspace | None = None, snapshot_times=(),
            record_reports: bool = False):
    """The time loop: advance the samples sample_ids as one batch from the
    projected initial data init (3, n1d_x, n1d_y) at t = 0 to t = T.

    Each step draws the loads of the batch's noise increments (one path per
    sample, or one per sample and field) and makes one `step` call.
    Returns the final StateBatch, the snapshots {time: StateBatch} and, with
    record_reports, one list of StepReports per sample.
    """
    tau = ops.tau
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"final time must be finite and >= 0, got {T}")
    n_steps = int(round(T / tau))
    if abs(n_steps * tau - T) > 1e-9 * max(T, tau):
        raise ValueError(f"T={T} is not an integral multiple of tau={tau}")
    snap_at = _resolve_steps(snapshot_times or (), tau, n_steps, "snapshot")
    ids = tuple(sample_ids)
    state = StateBatch(np.repeat(init[None], len(ids), axis=0), 0.0, ids)
    snapshots = {snap_at[0]: state} if 0 in snap_at else {}

    noisy = sampler is not None and sampler.amplitude > 0.0
    if noisy:
        if noise_workspace is None:
            noise_workspace = NoiseWorkspace(sampler, ops.mesh, ops.basis,
                                             projector=ops.projector)
        components = (None,) if sampler.shared else (0, 1, 2)
    reports = [[] for _ in ids]
    prev = noise = None
    for k in range(1, n_steps + 1):
        if noisy:
            noise = sample_increments(sampler, ids, k, tau, noise_workspace, components)
        new_state, residuals = step(ops, spec, state, noise, prev_state=prev, step_index=k)
        if record_reports:
            for b, res in enumerate(residuals):
                energy = energy_norm(ops, spec, new_state.state(b), tau)
                reports[b].append(StepReport(k, tuple(map(float, res)), energy))
        prev, state = state, new_state
        if k in snap_at:
            snapshots[snap_at[k]] = state
    return state, snapshots, reports


def run(spec: ModelSpec, mesh: Mesh2D, basis: Basis1D, tau: float, T: float,
        sampler: QWienerSampler | None = None, sample_id: int = 0,
        snapshot_times=None, ops: SchemeOperators | None = None,
        noise_workspace: NoiseWorkspace | None = None,
        record_reports: bool = True,
        nonlinearity_time: str = "extrapolated",
        noise_convention: str = "paper") -> Trajectory:
    """Integrate one trajectory from t=0 to t=T with steps of size tau: the
    one-sample batch of `advance`.

    T/tau must be integral within rounding.  Passing prebuilt ops (and a
    noise workspace) amortizes assembly and factorization across samples;
    identical inputs produce bit-identical trajectories.
    """
    if ops is None:
        ops = build_scheme(mesh, basis, spec, tau,
                           nonlinearity_time=nonlinearity_time,
                           noise_convention=noise_convention)
    final, snapshots, reports = advance(
        ops, spec, initial_data(ops, spec), T, (sample_id,), sampler=sampler,
        noise_workspace=noise_workspace, snapshot_times=snapshot_times,
        record_reports=record_reports)
    return Trajectory(final=final.state(0), reports=reports[0],
                      snapshots={t: s.state(0).copy() for t, s in snapshots.items()})
