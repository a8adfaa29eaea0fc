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
    Ox = c_phi Mx + Dx,  c_phi = 1 + (tau/2) r_phi,  Dx = (tau/2)(zeta Kx + xi Ax),
    Oy = (tau/2)(zeta Ky + xi Ay),

with Mx, Kx, Ax the 1D mass, stiffness and advection matrices
(Quadrature2D.axis_matrices; likewise for y).  Oy does not depend on r_phi,
so one KroneckerSum per side serves the fields' stack (3, n1d_x, n1d_y),
with the x-axis stack (Ox_u, Ox_v, Ox_w), Ox_u = Ox_v.  No 2D operator is
built.

L vec X = R is the Sylvester equation

    (c_phi I + Mx^-1 Dx) X + X (My^-1 Oy)^T = Mx^-1 R My^-T,

reduced by Bartels & Stewart (CACM 15(9), 1972) with the real Schur form
My^-1 Oy = V Tb V^T, which Tb's 1x1 and 2x2 diagonal blocks make upper
quasi-triangular.  (Fast diagonalization by eigenvectors is not used: the
advection-diffusion pencil's eigenvectors are too ill-conditioned.)
build_scheme picks one of two solvers by the size of the mesh:

- SweepFactor (small meshes) solves for the columns of X V from the last
  to the first, one block of Tb at a time, with precomputed inverses of the
  block's shifted x-axis systems (Golub, Nash & Van Loan, IEEE TAC 24(6),
  1979).  Each step of the sweep is one stacked matrix product over the whole
  batch, so a solve makes no per-sample call.
- SchurFactor (the rest) also reduces the x axis, Mx^-1 Dx = U Ta U^T, one
  form for every field since c_phi only shifts its diagonal, and solves the
  quasi-triangular equation by one LAPACK dtrsyl per sample and field.  A
  dtrsyl that perturbs a near-zero eigenvalue sum (info != 0) or rescales
  against overflow (scale != 1) is a failure, never a silent result.

A left operator that either solver finds (numerically) singular raises
SchemeError in build_scheme; a failed solve in a step raises SolverFailure.
These, DivergenceError and model.SingularNonlinearity are NumericalErrors.
Every solve must also pass the relative residual gate SOLVE_RTOL, measured
against the per-axis apply of the same left operator.

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
model.stage_forcing); on meshes above the sweep's size, dtrsyl runs once
per sample and field.  The checks hold per sample and field, and a failure
names its sample.  Every
per-sample operation is the same BLAS or LAPACK call whatever B is, so a
sample's trajectory does not depend on its batch: `run` is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Nothing in this package calls scipy.sparse.linalg; the module is kept bound
# here because perfbench/spans.py replaces `timestepper.spla` when it traces.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs, schur
from scipy.linalg.lapack import dtrsyl

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import (ModelSpec, NumericalError, SingularNonlinearity, nonlinear_f,
                    stage_forcing)
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increments

SOLVE_RTOL = 1e-10
# SweepFactor serves meshes with n1d_y * n1d_x^3 (its tables' cost) up to
# this, SchurFactor the rest.  Measured on square meshes: up to n1d = 15 the
# sweep's set-up costs about what the parent dtrsyl factor's three Schur forms
# cost; from n1d = 19 its tables add a third or more to build_scheme.
SWEEP_MAX_TABLE_COST = 15 ** 4

NOISE_CONVENTIONS = ("paper", "increment")
NONLINEARITY_TIMES = ("extrapolated", "lagged")


class SchemeError(NumericalError, RuntimeError):
    """Left operator is singular."""


class SolverFailure(NumericalError, RuntimeError):
    """A linear solve failed or exceeded the residual tolerance."""


class DivergenceError(NumericalError, RuntimeError):
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


class _AxisForms:
    """What both factors of the field-stacked operator

        L_f vec X = (c[f] mx + dx) X my^T + mx X oy^T      (SPD mx, my)

    share: the Cholesky factor fx of mx, the real Schur form
    my^-1 oy = V tb V^T and py = V^T my^-1.  A factor's `singular` names, per
    field, why L_f is singular (None if it is not).
    """

    def __init__(self, mx, my, dx, oy, c):
        self.fx, fy = cho_factor(mx), cho_factor(my)
        self.tb, self.v = schur(cho_solve(fy, oy), output="real")
        self.py = cho_solve(fy, self.v).T
        self.c = np.asarray(c, dtype=float)


class SchurFactor(_AxisForms):
    """Bartels-Stewart factor: with the real Schur form mx^-1 dx = U ta U^T,
    L_f vec X = R becomes (c[f] I + ta) Y + Y tb^T = px R py^T with
    Y = U^T X V and px = U^T mx^-1, one x-axis form for all fields: one
    dtrsyl per right-hand side on quasi-triangular matrices.
    """

    def __init__(self, mx, my, dx, oy, c):
        super().__init__(mx, my, dx, oy, c)
        ta, self.u = schur(cho_solve(self.fx, dx), output="real")
        # Fortran order, as schur returns it: dtrsyl then reads ta without a copy
        self.ta = [np.asfortranarray(cf * np.eye(len(ta)) + ta) for cf in self.c]
        self.px = cho_solve(self.fx, self.u).T
        # dtrsyl reports info 1 exactly when it must perturb a (near-)zero
        # eigenvalue sum, whatever the right-hand side
        _, _, info = self.solve(np.zeros((len(self.ta), len(ta), len(self.tb))))
        self.singular = [f"dtrsyl info {i}" if i else None for i in info]

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


class SweepFactor(_AxisForms):
    """Column sweep over the y-axis Schur form (Golub, Nash & Van Loan, IEEE
    TAC 24(6), 1979), vectorized over the whole stack of right-hand sides.

    With A_f = c[f] I + mx^-1 dx and Z = X V, L vec X = R is A_f Z + Z tb^T = F,
    F = mx^-1 R my^-1 V.  tb is upper quasi-triangular, so the columns of Z
    follow from the last to the first, one diagonal block s of tb (1x1 or
    2x2) at a time: Z[:, s] = G_{s,f} vec(F[:, s] - Z[:, later] tb[s, later]^T)
    with G_{s,f} the inverse of the block's shifted system.  The tables G are
    built once, for the fields' distinct c[f] only; they cost about
    n1d_y n1d_x^3 flops and n1d_y n1d_x^2 numbers.  The sweep neither scales
    nor perturbs: a solve's scale is 1 and its info 0, and a table that is
    (numerically) singular marks its fields singular.
    """

    def __init__(self, mx, my, dx, oy, c):
        super().__init__(mx, my, dx, oy, c)
        n, tb = len(mx), self.tb
        self.mxi = cho_solve(self.fx, np.eye(n))
        a = self.mxi @ dx
        starts = [j for j in range(len(tb)) if j == 0 or tb[j, j - 1] == 0.0]
        self.blocks = list(zip(starts, starts[1:] + [len(tb)]))
        one = [j for j, k in self.blocks if k - j == 1]
        two = np.array([j for j, k in self.blocks if k - j == 2], dtype=int)
        # a 2x2 block [[t, b], [c, t]] (standard form, bc < 0) has eigenvalues t -+ i w
        t, b, c2 = tb[two, two], tb[two, two + 1, None, None], tb[two + 1, two, None, None]
        w = np.sqrt(-b * c2)[:, 0, 0]
        # block s's system on Y = Z[:, s]^T is tb_ss Y + Y A_f^T: for a 1x1 block
        # A_f + t I; for a 2x2 one [[P, b I], [c I, P]] (P = A_f + t I), whose
        # inverse is [[P Q, -b Q], [-c Q, P Q]] with Q = (P^2 + w^2)^-1 = C conj(C)
        # and P Q = Re C, C = (P - i w I)^-1.  One row per distinct c[f]:
        forms = sorted(set(self.c.tolist()))
        cf = np.array(forms)[:, None, None, None]
        m1 = a + (cf + tb[one, one, None, None]) * np.eye(n)
        mc = a + (cf + (t - 1j * w)[:, None, None]) * np.eye(n)
        form_of = [forms.index(x) for x in self.c.tolist()]
        g1, C = _inverses(m1), _inverses(mc)
        Q = (C @ C.conj()).real
        g2 = np.empty((*C.shape[:2], 2 * n, 2 * n))
        g2[..., :n, :n] = g2[..., n:, n:] = C.real
        g2[..., :n, n:], g2[..., n:, :n] = -b * Q, -c2 * Q
        cond = np.concatenate([_norm1(m1) * _norm1(g1),
                               (_norm1(mc.real) + np.maximum(abs(b), abs(c2))[:, 0, 0])
                               * _norm1(g2)], axis=1).max(axis=1, initial=0.0)
        cond[np.isnan(cond)] = np.inf
        self.singular = [None if cond[i] * np.finfo(float).eps < 1.0 else
                         f"a column block has condition number {cond[i]:.1e}" for i in form_of]
        g1, g2 = g1[form_of], g2[form_of]         # per field
        tables = dict(zip(one, g1.swapaxes(0, 1))) | dict(zip(two.tolist(), g2.swapaxes(0, 1)))
        self.g = [tables[j] for j, _ in self.blocks]

    def solve(self, R: np.ndarray):
        """Solution X of L @ X = R for a stack R of shape (..., k, n1d_x, n1d_y)
        (k fields), and scale 1 and info 0 for each right-hand side, as arrays
        of shape R.shape[:-2]."""
        lead, n = R.shape[:-2], R.shape[-2]
        F = self.py @ R.swapaxes(-1, -2) @ self.mxi.T   # F^T: the columns of Z as rows
        Z = np.empty(F.shape)
        for (j, k), g in zip(reversed(self.blocks), reversed(self.g)):
            rhs = F[..., j:k, :] - self.tb[j:k, k:] @ Z[..., k:, :]
            Z[..., j:k, :] = (g @ rhs.reshape(*lead, -1, 1)).reshape(*lead, k - j, n)
        return Z.swapaxes(-1, -2) @ self.v.T, np.ones(lead), np.zeros(lead, dtype=int)


def _norm1(m: np.ndarray) -> np.ndarray:
    """The 1-norms of a stack of matrices."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


def _inverses(m: np.ndarray) -> np.ndarray:
    """The inverses of a stack of matrices (..., n, n) by LU; NaN where one
    is exactly singular."""
    getrf, getri = get_lapack_funcs(("getrf", "getri"), (m,))
    out = np.empty_like(m)
    for x, y in zip(m.reshape(-1, *m.shape[-2:]), out.reshape(-1, *m.shape[-2:])):
        lu, piv, info = getrf(x)
        y[...] = getri(lu, piv)[0] if info == 0 else np.nan
    return out


@dataclass
class SchemeOperators:
    """Per-axis operators and the factor of one (mesh, spec, tau) scheme.

    mass is (Mx, My); stiffness the unit diffusion (for the energy norm);
    left and right are the fields' Crank-Nicolson operators, with x-axis
    stacks (Ox_u, Ox_v, Ox_w), and factor solves left: a SweepFactor on
    meshes with n1d_y * n1d_x^3 <= SWEEP_MAX_TABLE_COST, a SchurFactor on
    the rest.
    staged_forcing is the last forcing a step met, staged on quad's grid.
    """

    mesh: Mesh2D
    basis: Basis1D
    tau: float
    mass: tuple[np.ndarray, np.ndarray]
    stiffness: KroneckerSum
    left: KroneckerSum
    right: KroneckerSum
    factor: SchurFactor | SweepFactor
    quad: Quadrature2D
    projector: L2Projector
    nonlinearity_time: str = "extrapolated"
    noise_convention: str = "paper"
    staged_forcing: tuple = (None, None)


def build_scheme(mesh: Mesh2D, basis: Basis1D, spec: ModelSpec, tau: float,
                 nonlinearity_time: str = "extrapolated",
                 noise_convention: str = "paper") -> SchemeOperators:
    """Build the per-axis operators on the projector's quadrature grid and
    the factor of the left-hand sides.

    u and v share identical left/right x-axis matrices; w folds the reaction
    term into the mass coefficient of both sides.  A left operator that the
    factor finds (numerically) singular raises SchemeError naming the first
    such field.
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
    dx, dy = half * (spec.zeta * kx + spec.xi * ax), half * (spec.zeta * ky + spec.xi * ay)
    hr = half * np.array([0.0, 0.0, spec.r])     # r_u, r_v, r_w

    def side(sign):   # Mass +- (tau/2)(r_phi Mass + zeta Diffusion + xi Advection)
        return KroneckerSum((1.0 + sign * hr)[:, None, None] * mx + sign * dx, sign * dy, mx, my)

    left = side(1)
    small = len(my) * len(mx) ** 3 <= SWEEP_MAX_TABLE_COST
    factor = (SweepFactor if small else SchurFactor)(mx, my, dx, dy, 1.0 + hr)
    for f, why in enumerate(factor.singular):
        if why:
            raise SchemeError(
                f"left operator of field {'uvw'[f]} is singular for tau={tau}, "
                f"mesh {mesh.nex}x{mesh.ney} order {mesh.order} ({why})")
    return SchemeOperators(
        mesh=mesh, basis=basis, tau=tau, mass=(mx, my),
        stiffness=KroneckerSum(kx, ky, mx, my), left=left, right=side(-1),
        factor=factor, quad=quad, projector=projector,
        nonlinearity_time=nonlinearity_time, noise_convention=noise_convention,
    )


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
            kind, _, why = str(exc).partition(":")     # name the step after the kind
            err = SingularNonlinearity(f"{kind} at step {step_index}:{why}")
            for b in range(len(U)):     # name the first sample at the pole
                try:
                    nonlinear_f(spec, U[b], V[b])
                except SingularNonlinearity:
                    raise _tag(err, state, b) from None
            raise err from None
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


def energy_norm(ops: SchemeOperators, spec: ModelSpec, state: StateVector) -> float:
    """Discrete weighted energy norm used by the stability diagnostic.

    sqrt( sum_phi  h1 * (phi' M phi) + (tau/2) * zeta * (phi' K phi) )
    with tau = ops.tau, h1 = max(1, 1 + (tau/2) * r) and K the
    unit-coefficient diffusion operator, both applied axis by axis.
    """
    tau = ops.tau
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
        if not np.isfinite(t):
            raise ValueError(f"{what} time {t} is not finite")
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
                energy = energy_norm(ops, spec, new_state.state(b))
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
