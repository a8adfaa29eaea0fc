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

The time loop (`advance`) works on batches: the states of B samples are one
array of shape (B, 3, n1d_x, n1d_y) (a StateBatch), and their noise
processes one array of shape (B, 1 | 3, n1d_x, n1d_y) (one path shared by
the fields, or one per field).  A step applies each right-hand-side
KroneckerSum once to the whole stack (np.matmul broadcasts), evaluates the
nonlinearity and the forcing once, and projects the batch's noise with
shared per-axis mass solves; only dtrsyl runs once per sample and field.
The residual gate, the dtrsyl checks and the finite check hold per sample
and field, and a failure names its sample.  Every per-sample operation is
the same BLAS or LAPACK call whatever B is, so a sample's trajectory does
not depend on its batch: `run` is the batch of one, and `step` also takes
a single StateVector.
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
from .model import ModelSpec, SingularNonlinearity, nonlinear_f
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increments

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
    """Per-step diagnostics: relative solve residuals per field (a (B, 3)
    array for a batch) and the energy norm (None where it is not computed)."""

    step: int
    residuals: tuple[float, float, float] | np.ndarray
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
        """Solution X of L @ X = R for a stack R of shape (..., n1d_x, n1d_y),
        and dtrsyl's scale and info for each right-hand side, as arrays of
        shape R.shape[:-2]."""
        F = self.px @ R @ self.py.T
        flat = F.reshape(-1, *F.shape[-2:])
        scale = np.empty(len(flat))
        info = np.empty(len(flat), dtype=int)
        for i, f in enumerate(flat):
            flat[i], scale[i], info[i] = dtrsyl(self.ta, self.tb, f, trana="N", tranb="T")
        return self.u @ F @ self.v.T, scale.reshape(F.shape[:-2]), info.reshape(F.shape[:-2])


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
        _, _, info = ops.factors[fam].solve(np.zeros((len(mx), len(my))))
        if info != 0:
            raise SchemeError(
                f"left operator of field family {fam} is singular for tau={tau}, "
                f"mesh {mesh.nex}x{mesh.ney} order {mesh.order} "
                f"(dtrsyl info {info})")
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


def _noise_fields(noise, shape):
    """Validate a StateVector's noise argument, shared (n,) or per-field
    (3, n), and give it the batch layout (1, 1 | 3, n1d_x, n1d_y)."""
    if noise is None:
        return None
    arr = np.asarray(noise, dtype=float)
    n = shape[0] * shape[1]
    if arr.shape not in ((n,), (3, n)):
        raise ValueError(f"noise array has shape {arr.shape}, expected (3, {n}) or ({n},)")
    return arr.reshape(1, -1, *shape)


def _tag(exc: Exception, state: StateBatch, b: int) -> Exception:
    """exc with the id of the batch's sample b attached as exc.sample_id."""
    exc.sample_id = None if state.sample_ids is None else state.sample_ids[b]
    return exc


def step(ops: SchemeOperators, spec: ModelSpec, state: StateVector | StateBatch,
         noise_n=None, noise_nm1=None, prev_state: StateVector | StateBatch | None = None,
         step_index: int = 0):
    """Advance a state, or a batch of states, one step of size ops.tau.

    state is a StateVector (the B = 1 case) or a StateBatch, whose samples
    advance together.  noise_n / noise_nm1 are the projected coefficient
    arrays of the driving process at the two step endpoints, or None for a
    deterministic step: (3, n) or shared (n,) for a StateVector,
    (B, 3 | 1, n1d_x, n1d_y) for a batch.  prev_state (of the same kind)
    supplies phi^{n-2} for the extrapolated nonlinearity level; when absent
    the nonlinearity is lagged.

    A StateVector gives (StateVector, StepReport) with the energy norm of
    the new state.  A batch gives (StateBatch, StepReport) with residuals
    of shape (B, 3) and energy None.  A failure of one sample of a batch
    carries its id as sample_id.
    """
    tau = ops.tau
    quad = ops.quad
    t_half = state.t + tau / 2.0
    mx, my = ops.mass
    shape = (len(mx), len(my))
    single = isinstance(state, StateVector)
    if single:
        noise_n, noise_nm1 = _noise_fields(noise_n, shape), _noise_fields(noise_nm1, shape)
        state = StateBatch(state.stacked().reshape(1, 3, *shape), state.t)
        if prev_state is not None:
            prev_state = StateBatch(prev_state.stacked().reshape(1, 3, *shape), prev_state.t)
    old = state.coeffs

    rhs = np.empty_like(old)
    for fam, idx in FAMILIES:
        rhs[:, idx] = ops.right[fam] @ old[:, idx]

    if spec.wp != 0.0 and any(spec.e):
        u, v = old[:, 0], old[:, 1]
        if ops.nonlinearity_time == "extrapolated" and prev_state is not None:
            # the extrapolation is linear, so it is done on coefficients
            u = 1.5 * u - 0.5 * prev_state.coeffs[:, 0]
            v = 1.5 * v - 0.5 * prev_state.coeffs[:, 1]
        U, V = quad.values(u), quad.values(v)
        try:
            nl = nonlinear_f(spec, U, V)
        except SingularNonlinearity as exc:
            for b in range(len(U)):     # name the first sample at the pole
                try:
                    nonlinear_f(spec, U[b], V[b])
                except SingularNonlinearity:
                    raise _tag(exc, state, b) from None
            raise
        nl_load = quad.load(nl)
        for idx in range(3):
            rhs[:, idx] -= tau * spec.wp * spec.e[idx] * nl_load

    if spec.forcing is not None:
        for idx in range(3):
            rhs[:, idx] += tau * quad.load(quad.sample(spec.forcing[idx], t_half))

    if noise_n is not None or noise_nm1 is not None:
        zn = 0.0 if noise_n is None else noise_n
        zm = 0.0 if noise_nm1 is None else noise_nm1
        delta = zm - zn if ops.noise_convention == "paper" else zn - zm
        # a shared path (one noise field per sample) broadcasts over the fields
        rhs += mx @ delta @ my.T

    sol = np.empty_like(rhs)
    gap = np.empty_like(rhs)
    scale = np.empty(rhs.shape[:2])
    info = np.empty(rhs.shape[:2], dtype=int)
    for fam, idx in FAMILIES:
        sol[:, idx], scale[:, idx], info[:, idx] = ops.factors[fam].solve(rhs[:, idx])
        gap[:, idx] = ops.left[fam] @ sol[:, idx] - rhs[:, idx]
    bnorm = np.linalg.norm(rhs, axis=(2, 3))
    residuals = np.linalg.norm(gap, axis=(2, 3)) / np.where(bnorm > 0, bnorm, 1.0)
    bad = (info != 0) | (scale != 1.0)
    failed = bad | (residuals > SOLVE_RTOL)
    if failed.any():
        b, f = np.argwhere(failed)[0]
        where = f"solve for field {'uvw'[f]} at step {step_index}"
        if bad[b, f]:
            raise _tag(SolverFailure(f"{where}: dtrsyl info {info[b, f]}, "
                                     f"scale {scale[b, f]}"), state, b)
        raise _tag(SolverFailure(f"{where}: relative residual {residuals[b, f]:.3e} "
                                 f"exceeds {SOLVE_RTOL:.1e}"), state, b)

    if not np.isfinite(sol).all():
        b, f = np.argwhere(~np.isfinite(sol).all(axis=(2, 3)))[0]
        raise _tag(DivergenceError(f"non-finite state after step {step_index} "
                                   f"(field {'uvw'[f]})"), state, b)
    new_state = StateBatch(sol, state.t + tau, state.sample_ids)
    if not single:
        return new_state, StepReport(step=step_index, residuals=residuals, energy=None)
    new_state = new_state.state(0)
    return new_state, StepReport(step=step_index, residuals=tuple(map(float, residuals[0])),
                                 energy=energy_norm(ops, spec, new_state, tau))


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

    Each step draws the batch's noise increments (one path per sample, or
    one per sample and field), projects them together and makes one `step`
    call.  Returns the final StateBatch, the snapshots {time: StateBatch}
    and, with record_reports, one list of StepReports per sample.
    """
    tau = ops.tau
    if T < 0:
        raise ValueError(f"final time must be >= 0, got {T}")
    n_steps = int(round(T / tau))
    if abs(n_steps * tau - T) > 1e-9 * max(T, tau):
        raise ValueError(f"T={T} is not an integral multiple of tau={tau}")
    snap_at = _resolve_steps(snapshot_times or (), tau, n_steps, "snapshot")
    ids = tuple(sample_ids)
    state = StateBatch(np.repeat(init[None], len(ids), axis=0), 0.0, ids)
    snapshots = {snap_at[0]: state} if 0 in snap_at else {}

    noisy = sampler is not None and sampler.amplitude > 0.0
    w_proc = None
    if noisy:
        if noise_workspace is None:
            noise_workspace = NoiseWorkspace(sampler, ops.mesh, ops.basis,
                                             projector=ops.projector)
        components = (None,) if sampler.shared else (0, 1, 2)
        w_proc = np.zeros((len(ids), len(components), *init.shape[1:]))
    reports = [[] for _ in ids]
    prev = None
    for k in range(1, n_steps + 1):
        w_next = None
        if noisy:
            w_next = w_proc + sample_increments(sampler, ids, k, tau, noise_workspace,
                                                components).reshape(w_proc.shape)
        new_state, report = step(ops, spec, state, w_next, w_proc, prev_state=prev,
                                 step_index=k)
        if record_reports:
            for b, res in enumerate(report.residuals):
                energy = energy_norm(ops, spec, new_state.state(b), tau)
                reports[b].append(StepReport(k, tuple(map(float, res)), energy))
        prev = state
        state = new_state
        w_proc = w_next
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
