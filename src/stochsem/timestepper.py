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

    L vec X = c_phi Mx X My^T + S,   R vec X = c'_phi Mx X My^T - S,
    S = Dx X My^T + Mx X Oy^T,
    c_phi = 1 + (tau/2) r_phi,  c'_phi = 1 - (tau/2) r_phi,
    Dx = (tau/2)(zeta Kx + xi Ax),  Oy = (tau/2)(zeta Ky + xi Ay),

with Mx, Kx, Ax the 1D mass, stiffness and advection matrices
(Quadrature2D.axis_matrices; likewise for y).  The two sides share every
per-axis product, and the field enters only through c_phi and c'_phi, so
one KroneckerPair applies both sides to the fields' whole stack
(..., 3, n1d_x, n1d_y) by five stacked products with fixed 2D matrices.  No
2D operator is built.  On a square mesh both axes are one
(mesh.shared_axis): Dx and Oy are then one matrix, and so are the mass
factors and Schur forms below.

L vec X = R is the Sylvester equation

    (c_phi I + Mx^-1 Dx) X + X (My^-1 Oy)^T = Mx^-1 R My^-T,

reduced by Bartels & Stewart (CACM 15(9), 1972) with the real Schur forms
Mx^-1 Dx = U Ta U^T and My^-1 Oy = V Tb V^T, which their 1x1 and 2x2
diagonal blocks make upper quasi-triangular: one form per distinct axis,
and for every field, since c_phi only shifts Ta's diagonal.  (Fast
diagonalization by eigenvectors is not used: the advection-diffusion
pencil's eigenvectors are too ill-conditioned.)  build_scheme makes one
SchurFactor on these forms.  L_phi is singular when an eigenvalue sum
c_phi + lambda_i(Ta) + mu_j(Tb), read off the blocks, is within dtrsyl's
own threshold of zero; build_scheme then raises SchemeError.  One of two
kernels solves, picked by the size of the mesh:

- the column sweep (small meshes) solves for the columns of X V from the
  last to the first, one diagonal block s of Tb at a time, with the
  precomputed inverse of the block's system I (x) (c_phi I + Mx^-1 Dx) +
  Tb[s, s] (x) I, one rule for 1x1 and 2x2 blocks (Golub, Nash & Van Loan,
  IEEE TAC 24(6), 1979).  Each step of the sweep is one stacked matrix
  product over the whole batch, so a solve makes no per-sample call.
- dtrsyl (the rest) solves the quasi-triangular equation in Ta and Tb by
  one LAPACK call per sample and field.  A dtrsyl that perturbs a
  near-zero eigenvalue sum (info != 0) or rescales against overflow
  (scale != 1) is a failure, never a silent result.

On the sweep's meshes, a block system whose condition number reaches 1/eps
is singular too (SchemeError).
A failed solve in a step raises SolverFailure.
These, DivergenceError and model.SingularNonlinearity are NumericalErrors.
Every solve must also pass the relative residual gate SOLVE_RTOL, measured
against the per-axis apply of the same left operator.

The nonlinearity is evaluated explicitly.  Two time levels are supported:
"lagged" uses (u, v) at t_{n-1} literally; "extrapolated" (the default) uses
the second-order extrapolation (3 phi^{n-1} - phi^{n-2})/2 toward the half
level, which restores the scheme's O(tau^2) accuracy (the lagged evaluation
measurably degrades toward first order; see test_timestepper.py,
TestRun.test_lagged_nonlinearity_degrades_toward_first_order).  The first
step of an extrapolated run falls back to lagged.

Noise enters as the load of its increment, (W^n - W^{n-1}, v) on the test
functions v: for v in the discrete space that is the load of the projected
increment too, so the increment is never projected.  The "paper"
convention subtracts the load from the right-hand side, the "increment"
convention adds it (the conventional +dW forcing).

A scheme (SchemeOperators, built by build_scheme) owns its discretized
problem and is frozen: it holds its spec, mesh, basis and tau, the forcing
staged once on the quadrature grid (model.stage_forcing), and shares one
Cholesky factorization of the per-axis mass with its L2Projector.  The
scheme's options (nonlinearity_time, noise_convention) are set once, on
build_scheme.  `step`, `advance`, `energy_norm` and `initial_data` take only
the scheme; `run` and montecarlo.run_ensemble take a prebuilt one, checked
by scheme_for, or build one with build_scheme's default options.  They first
check the run's time grid (time_grid); `advance` takes that resolved grid.

`step` and the time loop (`advance`) work on batches: the states of B
samples are one array (B, 3, n1d_x, n1d_y) (a StateBatch), their noise
loads one array (B, 1 | 3, n1d_x, n1d_y) (one path shared by the fields, or
one per field).  A step makes one solve and one fused apply of both sides
for the whole stack (np.matmul broadcasts) and one load of the nonlinearity
with the forcings (staged once per scheme, model.stage_forcing); on meshes
above the sweep's size, dtrsyl runs once per sample and field.  The apply
on the new state phi^n gives the residual gate its L phi^n and the next
step its right-hand side R phi^n, which the new StateBatch carries; the
time loop supplies the first from one apply of the initial data, a
one-sample stack, and a caller's state that carries none has its R phi
applied when it is stepped.  The checks hold per sample and field, and a
failure names its sample (a pole's is the first index nonlinear_f gives).
Every per-sample operation is the same BLAS or LAPACK call whatever B is, so
a sample's trajectory does not depend on its batch: `run` is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np
# Nothing in this package calls scipy.sparse.linalg; the module is kept bound
# here because perfbench/spans.py replaces `timestepper.spla` when it traces.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import cho_solve, get_lapack_funcs, schur
from scipy.linalg.lapack import dtrsyl

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import (POLE, ModelSpec, NumericalError, SingularNonlinearity, nonlinear_f,
                    stage_forcing)
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increments

SOLVE_RTOL = 1e-10
# The column sweep serves meshes with n1d_y * n1d_x^3 (its tables' cost) up
# to this, dtrsyl the rest.  Measured on square meshes: up to n1d = 15 the
# sweep's tables cost about what the Schur forms cost; from n1d = 19 they add
# a third or more to build_scheme.
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


class KroneckerPair:
    """The operators L_f = c[f] M + A and R_f = cr[f] M - A on coefficient
    matrices X (..., n1d_x, n1d_y), with the mass M vec X = mx X my^T and the
    Kronecker sum A vec X = dx X my^T + mx X dy^T; c and cr (k,) act by field
    on a stack X (..., k, n1d_x, n1d_y).  `terms` gives (M X, A X) and
    `apply` (L X, R X) from the same five stacked products with 2D matrices,
    P = X my^T, Q = X dy^T, M X = mx P and A X = dx P + mx Q."""

    def __init__(self, mx, my, dx, dy, c=(0.0,), cr=(0.0,)):
        self.mx, self.my, self.dx, self.dy = mx, my, dx, dy
        # right operands stored C-contiguous: numpy multiplies a stack by a
        # transposed view 2-3 times slower
        self.myt, self.dyt = np.ascontiguousarray(my.T), np.ascontiguousarray(dy.T)
        self.c, self.cr = np.asarray(c, dtype=float), np.asarray(cr, dtype=float)

    # Both methods work in place where they can: glibc hands a run of freed
    # large temporaries back to the system, and each next one faults its
    # pages in again (at (32, 3, 15, 15) that tripled the cost of `terms`).
    def terms(self, X: np.ndarray):
        """(M X, A X)."""
        P = X @ self.myt
        MX, AX = self.mx @ P, self.dx @ P
        np.matmul(X, self.dyt, out=P)       # P is now Q
        AX += self.mx @ P
        return MX, AX

    def apply(self, X: np.ndarray):
        """(L X, R X), by field."""
        MX, AX = self.terms(X)
        LX = self.c[:, None, None] * MX
        LX += AX
        MX *= self.cr[:, None, None]
        MX -= AX
        return LX, MX


def _eigenvalues(t: np.ndarray) -> np.ndarray:
    """The eigenvalues of a real Schur form t, read off its diagonal blocks:
    t[j, j] on a 1x1 block, a -+ i sqrt(-bc) on a standardized 2x2 block
    [[a, b], [c, a]] (bc < 0)."""
    w = np.sqrt(-np.diag(t, 1) * np.diag(t, -1))      # 0 off the 2x2 blocks
    lam = np.diag(t).astype(complex)
    lam.imag[1:] += w
    lam.imag[:-1] -= w
    return lam


def _schur_form(f, d):
    """One axis's real Schur form m^-1 d = q t q^T (f the Cholesky factor of
    the SPD mass m), with p = q^T m^-1 and t's eigenvalues: (t, q, p, eig)."""
    t, q = schur(cho_solve(f, d), output="real")
    return t, q, cho_solve(f, q).T, _eigenvalues(t)


class SchurFactor:
    """Bartels-Stewart factor of the field-stacked operator

        L_f vec X = (c[f] mx + dx) X my^T + mx X oy^T      (SPD mx, my)

    on the axes' forms (_schur_form; one object on a shared axis)
    mx^-1 dx = U ta U^T and my^-1 oy = V tb V^T.  `singular` names, per
    field, why L_f is singular (None if it is not): an eigenvalue sum
    c[f] + ta_i + tb_j within dtrsyl's threshold
    eps max(max|c[f] I + ta|, max|tb|) of zero, or, for the sweep, a block
    system of 1-norm condition number 1/eps or more.  A factor with an
    eigenvalue-sum singular field builds no kernel.  `sweep`
    (n1d_y n1d_x^3 <= SWEEP_MAX_TABLE_COST) picks the kernel:

    - the column sweep, vectorized over the whole stack of right-hand
      sides: with A_f = c[f] I + mx^-1 dx and Z = X V, L vec X = R is
      A_f Z + Z tb^T = F, F = mx^-1 R my^-1 V, solved one diagonal block s
      of tb (1x1 or 2x2) at a time from the last:
      Z[:, s] = G_{s,f} vec(F[:, s] - Z[:, later] tb[s, later]^T), with
      G_{s,f} the inverse of the block's system I (x) A_f + tb[s, s] (x) I
      on Z[:, s]'s stacked columns, tabulated once per distinct c[f]
      (about n1d_y n1d_x^3 flops and n1d_y n1d_x^2 numbers) from the x-axis
      form alone: mx^-1 = U px and mx^-1 dx = U ta U^T;
    - one dtrsyl per right-hand side on (c[f] I + ta) Y + Y tb^T = px R py^T,
      Y = U^T X V, px = U^T mx^-1, py = V^T my^-1.
    """

    def __init__(self, forms, c):
        (ta, self.u, self.px, lx), (self.tb, v, py, ly) = forms
        # right operands stored C-contiguous, as in KroneckerPair
        self.vt, self.pyt = np.ascontiguousarray(v.T), np.ascontiguousarray(py.T)
        c = np.asarray(c, dtype=float).tolist()
        # Fortran order, as schur returns it: dtrsyl then reads ta without a copy
        shifted = {cf: np.asfortranarray(cf * np.eye(len(ta)) + ta) for cf in c}
        sums, top, why = lx[:, None] + ly, np.abs(self.tb).max(), {}
        for cf, a in shifted.items():
            gap, smin = np.abs(cf + sums).min(), np.finfo(float).eps * max(np.abs(a).max(), top)
            why[cf] = (f"an eigenvalue sum is {gap:.1e}, within dtrsyl's threshold "
                       f"{smin:.1e} of zero") if gap <= smin else None
        self.singular = [why[cf] for cf in c]
        self.sweep = len(self.tb) * len(ta) ** 3 <= SWEEP_MAX_TABLE_COST
        self.ta = [shifted[cf] for cf in c]
        if not self.sweep or any(self.singular):
            return      # dtrsyl needs no table, and no table meets a singular block
        n, tb = len(ta), self.tb
        self.mxi, a = self.u @ self.px, self.u @ ta @ self.u.T     # mx^-1, mx^-1 dx
        starts = [j for j in range(len(tb)) if j == 0 or tb[j, j - 1] == 0.0]
        self.blocks = list(zip(starts, starts[1:] + [len(tb)]))
        # block s (columns j:k of Z) has the system I (x) A_f + tb[s, s] (x) I =
        # I (x) a + (tb[s, s] + c[f] I) (x) I; one row per distinct c[f]
        shifts = sorted(set(c))
        per_field = [shifts.index(x) for x in c]
        tables, cond = {}, np.zeros(len(shifts))
        for size in (1, 2):
            js = [j for j, k in self.blocks if k - j == size]
            t = np.array([tb[j:j + size, j:j + size] for j in js]).reshape(-1, size, size)
            t = t + np.array(shifts)[:, None, None, None] * np.eye(size)
            m = t[..., :, None, :, None] * np.eye(n)[:, None, :]
            m += np.eye(size)[:, None, :, None] * a[:, None, :]
            m = m.reshape(*t.shape[:2], size * n, size * n)
            g = _inverses(m)
            # a block system of 1-norm condition number 1/eps or more is singular
            # to working precision, though its eigenvalue sums pass the rule above
            cond = np.maximum(cond, (_norm1(m) * _norm1(g)).max(axis=1, initial=0.0))
            tables |= dict(zip(js, g[per_field].swapaxes(0, 1)))
        cond[np.isnan(cond)] = np.inf
        self.singular = [None if cond[i] * np.finfo(float).eps < 1.0 else
                         f"a column block has condition number {cond[i]:.1e}" for i in per_field]
        self.g = [tables[j] for j, _ in self.blocks]

    def solve(self, R: np.ndarray):
        """Solution X of L @ X = R for a stack R of shape (..., k, n1d_x, n1d_y)
        (k fields), and the kernel's scale and info for each right-hand side,
        as arrays of shape R.shape[:-2]: dtrsyl's, or 1 and 0 for the sweep,
        which neither scales nor perturbs."""
        lead = R.shape[:-2]
        if self.sweep:
            # F^T, the columns of Z as rows, as the transpose of F: numpy
            # multiplies by a transposed stack 2-3 times slower
            F = (self.mxi @ R @ self.pyt).swapaxes(-1, -2)
            Z = np.empty(F.shape)
            for (j, k), g in zip(reversed(self.blocks), reversed(self.g)):
                rhs = F[..., j:k, :] - self.tb[j:k, k:] @ Z[..., k:, :]
                Z[..., j:k, :] = (g @ rhs.reshape(*lead, -1, 1)).reshape(*lead, k - j, -1)
            return Z.swapaxes(-1, -2) @ self.vt, np.ones(lead), np.zeros(lead, dtype=int)
        F = self.px @ R @ self.pyt
        flat = F.reshape(-1, *F.shape[-2:])
        scale, info = np.empty(len(flat)), np.empty(len(flat), dtype=int)
        for i, f in enumerate(flat):
            flat[i], scale[i], info[i] = dtrsyl(self.ta[i % len(self.ta)], self.tb, f,
                                                trana="N", tranb="T")
        return self.u @ F @ self.vt, scale.reshape(lead), info.reshape(lead)


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


@dataclass(frozen=True, eq=False)
class SchemeOperators:
    """The Crank-Nicolson scheme of one (spec, mesh, basis, tau), which it
    owns; frozen, so a scheme shared by threads or workers never changes.

    stiffness is the pair of the mass and the unit diffusion (for the energy
    norm, KroneckerPair.terms); sides the fields' Crank-Nicolson pair, whose
    one `apply` gives both L X and R X of a stack, with c = (c_u, c_v, c_w)
    and c' likewise; factor solves L: by the column sweep on meshes with
    n1d_y * n1d_x^3 <= SWEEP_MAX_TABLE_COST, by dtrsyl on the rest
    (factor.sweep).  forcing is spec.forcing staged on quad's grid once,
    at build time (a function t -> (3, nx, ny) samples), or None without
    forcing.
    """

    spec: ModelSpec
    mesh: Mesh2D
    basis: Basis1D
    tau: float
    stiffness: KroneckerPair
    sides: KroneckerPair
    factor: SchurFactor
    quad: Quadrature2D
    projector: L2Projector
    forcing: object
    nonlinearity_time: str = "extrapolated"
    noise_convention: str = "paper"


def _check_tau(tau: float) -> None:
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


def build_scheme(mesh: Mesh2D, basis: Basis1D, spec: ModelSpec, tau: float,
                 nonlinearity_time: str = "extrapolated",
                 noise_convention: str = "paper") -> SchemeOperators:
    """Build the scheme of (spec, mesh, basis, tau) on the projector's grid:
    the per-axis operators, the factor of the left-hand sides (on the
    projector's mass factors) and the forcing, staged here once.

    u and v share c = 1 and c' = 1; w folds the reaction term into the mass
    coefficients c_w and c'_w of both sides.  Each distinct axis gets
    one Schur form (mesh.per_axis).  A left operator that the factor finds
    (numerically) singular raises SchemeError naming the first such field.
    """
    _check_tau(tau)
    if nonlinearity_time not in NONLINEARITY_TIMES:
        raise ValueError(f"unknown nonlinearity_time {nonlinearity_time!r}")
    if noise_convention not in NOISE_CONVENTIONS:
        raise ValueError(f"unknown noise convention {noise_convention!r}")

    projector = L2Projector(mesh, basis)
    quad = projector.quad
    (mx, kx, ax), (my, ky, ay) = quad.axis_matrices()
    half = 0.5 * tau
    dx, dy = mesh.per_axis(lambda k, a: half * (spec.zeta * k + spec.xi * a), (kx, ax), (ky, ay))
    hr = half * np.array([0.0, 0.0, spec.r])     # r_u, r_v, r_w
    fx, fy = projector.factors
    factor = SchurFactor(mesh.per_axis(_schur_form, (fx, dx), (fy, dy)), 1.0 + hr)
    for f, why in enumerate(factor.singular):
        if why:
            raise SchemeError(
                f"left operator of field {'uvw'[f]} is singular for tau={tau}, "
                f"mesh {mesh.nex}x{mesh.ney} order {mesh.order} ({why})")
    return SchemeOperators(
        spec=spec, mesh=mesh, basis=basis, tau=tau,
        stiffness=KroneckerPair(mx, my, kx, ky),
        sides=KroneckerPair(mx, my, dx, dy, 1.0 + hr, 1.0 - hr),
        factor=factor, quad=quad, projector=projector,
        forcing=None if spec.forcing is None else stage_forcing(spec.forcing, *quad.grid),
        nonlinearity_time=nonlinearity_time, noise_convention=noise_convention,
    )


@dataclass
class StateBatch:
    """The states of B samples at one time level: the layout `step` and the
    time loop work on.

    coeffs has shape (B, 3, n1d_x, n1d_y): sample, field (u, v, w), then the
    field's coefficient matrix (global dof gx * n1d_y + gy).  sample_ids
    name the samples in failures (None when they have no ids).  right is
    R coeffs, the Crank-Nicolson right-hand side of the next step before its
    loads: `step` sets it on the state it makes, and the time loop on the
    state it starts from; it is None on any other state (`step` then applies
    R itself) and `step` never writes into it.
    """

    coeffs: np.ndarray
    t: float = 0.0
    sample_ids: tuple | None = None
    right: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def state(self, b: int) -> StateVector:
        """Sample b as a StateVector (views of coeffs)."""
        return StateVector(*self.coeffs[b].reshape(3, -1), t=self.t)


def _tag(exc: Exception, state: StateBatch, b: int) -> Exception:
    """exc with the id of the batch's sample b attached as exc.sample_id."""
    exc.sample_id = None if state.sample_ids is None else state.sample_ids[b]
    return exc


def step(ops: SchemeOperators, state: StateBatch, noise=None,
         prev_state: StateBatch | None = None, step_index: int = 0):
    """Advance a batch of states, whose samples advance together, one step
    of size ops.tau.

    noise is the load of the batch's noise increments (sample_increments),
    shape (B, 1 | 3, n1d_x, n1d_y), or None for a deterministic step.
    prev_state supplies phi^{n-2} for the extrapolated nonlinearity level;
    when absent the nonlinearity is lagged.  state.right, when set, is the
    right-hand side R phi^{n-1}: the time loop supplies the first, and each
    step the next one.

    Returns the new StateBatch and the relative solve residuals, shape
    (B, 3).  A failure of one sample carries its id as sample_id.
    """
    spec, tau, quad = ops.spec, ops.tau, ops.quad
    t_half = state.t + tau / 2.0
    old = state.coeffs

    # the Crank-Nicolson right-hand side R phi^{n-1}: carried over from the
    # residual gate of the step that made the state (or from the time loop's
    # apply of the initial data), else applied here.  It may be the state's
    # carried array, so the loads below replace it
    rhs = state.right if state.right is not None else ops.sides.apply(old)[1]

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
        except SingularNonlinearity as exc:     # the pole's sample is its first index
            raise _tag(SingularNonlinearity(POLE.format(f" at step {step_index}")),
                       state, exc.index[0]) from None
    if ops.forcing is not None:
        samples.append(quad.finite(ops.forcing(t_half)))
    if samples:
        loads = quad.load(np.concatenate(samples))
        if nonlinear:
            rhs = rhs - (tau * spec.wp * np.array(spec.e))[:, None, None] * loads[:len(old), None]
        if ops.forcing is not None:
            rhs = rhs + tau * loads[-3:]

    if noise is not None:
        # a shared path (one noise load per sample) broadcasts over the fields
        rhs = rhs - noise if ops.noise_convention == "paper" else rhs + noise

    sol, scale, info = ops.factor.solve(rhs)
    gap, right = ops.sides.apply(sol)      # L phi^n, and R phi^n for the next step
    gap -= rhs
    gnorm, bnorm = (np.sqrt(np.einsum("...ij,...ij->...", x, x)) for x in (gap, rhs))
    residuals = gnorm / np.where(bnorm > 0, bnorm, 1.0)
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
    return StateBatch(sol, state.t + tau, state.sample_ids, right), residuals


def energy_norm(ops: SchemeOperators, state: StateVector) -> float:
    """Discrete weighted energy norm used by the stability diagnostic.

    sqrt( sum_phi  h1 * (phi' M phi) + (tau/2) * zeta * (phi' K phi) )
    with tau = ops.tau, h1 = max(1, 1 + (tau/2) * r) and K the
    unit-coefficient diffusion operator, both applied axis by axis.
    """
    spec, tau = ops.spec, ops.tau
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    F = state.stacked().reshape(3, ops.mesh.ax.n_dofs, ops.mesh.ay.n_dofs)
    MF, KF = ops.stiffness.terms(F)
    total = h1 * float(np.sum(F * MF)) + 0.5 * tau * spec.zeta * float(np.sum(F * KF))
    return float(np.sqrt(total))


@dataclass
class Trajectory:
    """Result of one sample path: final state, diagnostics, snapshots."""

    final: StateVector
    reports: list
    snapshots: dict   # time -> StateVector


def time_grid(T: float, tau: float, times=()):
    """(n_steps, {step: [times]}) of a run to T with steps tau, each time on the
    step it names; ValueError for a tau, T or time off the grid within [0, T]."""
    _check_tau(tau)
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"final time must be finite and >= 0, got {T}")
    n_steps = int(round(T / tau))
    if abs(n_steps * tau - T) > 1e-9 * max(T, tau):
        raise ValueError(f"T={T} is not an integral multiple of tau={tau}")
    out = {}
    for t in times or ():
        if not np.isfinite(t):
            raise ValueError(f"snapshot time {t} is not finite")
        k = int(round(t / tau))
        if not (0 <= k <= n_steps) or abs(k * tau - t) > 1e-9 * max(tau, abs(t), 1.0):
            raise ValueError(f"snapshot time {t} is not a multiple of tau={tau} within [0, T]")
        out.setdefault(k, []).append(float(t))
    return n_steps, out


def initial_data(ops: SchemeOperators) -> np.ndarray:
    """The projected initial data of ops.spec, shape (3, n1d_x, n1d_y)."""
    init = [ops.projector.project(f) for f in ops.spec.init]
    return np.stack(init).reshape(3, ops.mesh.ax.n_dofs, ops.mesh.ay.n_dofs)


def advance(ops: SchemeOperators, init: np.ndarray, grid, sample_ids,
            sampler: QWienerSampler | None = None,
            noise_workspace: NoiseWorkspace | None = None,
            record_reports: bool = False):
    """The time loop: advance the samples sample_ids as one batch from the
    projected initial data init (3, n1d_x, n1d_y) over grid (from time_grid).

    Each step draws the loads of the batch's noise increments (one path per
    sample, or one per sample and field) and makes one `step` call; the
    first step's right-hand side is one apply of init, repeated over the batch.
    Returns the final StateBatch, the snapshots {time: StateBatch} and, with
    record_reports, one list of StepReports per sample.
    """
    n_steps, snap_at = grid
    ids = tuple(sample_ids)
    right = np.repeat(ops.sides.apply(init[None])[1], len(ids), axis=0)
    state = StateBatch(np.repeat(init[None], len(ids), axis=0), 0.0, ids, right)
    snapshots = dict.fromkeys(snap_at.get(0, ()), replace(state, right=None))

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
            noise = sample_increments(sampler, ids, k, ops.tau, noise_workspace, components)
        new_state, residuals = step(ops, state, noise, prev_state=prev, step_index=k)
        if record_reports:
            for b, res in enumerate(residuals):
                energy = energy_norm(ops, new_state.state(b))
                reports[b].append(StepReport(k, tuple(map(float, res)), energy))
        prev, state = state, new_state
        for t in snap_at.get(k, ()):
            snapshots[t] = replace(state, right=None)     # holds no carried array
    return state, snapshots, reports


def scheme_for(spec: ModelSpec, mesh: Mesh2D, basis: Basis1D, tau: float,
               ops: SchemeOperators | None):
    """ops, checked to be the scheme of these very spec, mesh and basis and
    this tau (ValueError naming what differs), or if None a new scheme with
    build_scheme's default options (options are set on build_scheme)."""
    if ops is None:
        return build_scheme(mesh, basis, spec, tau)
    for name, given in (("spec", spec), ("mesh", mesh), ("basis", basis)):
        if getattr(ops, name) is not given:
            raise ValueError(f"ops was built for another {name}")
    if ops.tau != tau:
        raise ValueError(f"ops was built for tau={ops.tau}, not tau={tau}")
    return ops


def run(spec: ModelSpec, mesh: Mesh2D, basis: Basis1D, tau: float, T: float,
        sampler: QWienerSampler | None = None, sample_id: int = 0,
        snapshot_times=None, ops: SchemeOperators | None = None,
        noise_workspace: NoiseWorkspace | None = None,
        record_reports: bool = False) -> Trajectory:
    """Integrate one trajectory from t=0 to t=T with steps of size tau: the
    one-sample batch of `advance`.

    T and the snapshot times must be on the grid t_n = n tau (time_grid checks
    them before any scheme).  Prebuilt ops (checked by scheme_for) and a noise
    workspace amortize assembly and factorization across samples; identical
    inputs produce bit-identical trajectories.  Without ops the scheme has
    build_scheme's default options; others come with a caller's ops.  The
    per-step StepReports are computed only with record_reports (default off).
    """
    grid = time_grid(T, tau, snapshot_times)
    ops = scheme_for(spec, mesh, basis, tau, ops)
    final, snapshots, reports = advance(
        ops, initial_data(ops), grid, (sample_id,), sampler=sampler,
        noise_workspace=noise_workspace, record_reports=record_reports)
    return Trajectory(final=final.state(0), reports=reports[0],
                      snapshots={t: s.state(0).copy() for t, s in snapshots.items()})
