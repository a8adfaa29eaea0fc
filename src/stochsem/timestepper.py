"""Linearized Crank-Nicolson time stepping for the coupled system.

One step advances each field phi in {u, v, w} by a single linear solve

    L_phi phi^n = R_phi phi^{n-1} - tau * wp * e_i * load(f(u*, v*))
                  + tau * load(forcing_i(t_{n-1/2})) + noise terms,

with L_phi = (1 + (tau/2) r_phi) Mass + (tau/2)(xi Advection + zeta Diffusion)
(r_w = r, r_u = r_v = 0) and R_phi its mirror with negated tau/2 terms.
The time levels are t_n = n tau, and the step index n is the only clock:
step n samples the forcing at t_{n-1/2} = (n - 1/2) tau, and a run's final
state is stamped with T itself, never with a sum of steps.

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

with the real Schur forms Mx^-1 Dx = U Ta U^T and My^-1 Oy = V Tb V^T,
which their 1x1 and 2x2 diagonal blocks make upper quasi-triangular: one
form per distinct axis, and for every field, since c_phi only shifts Ta's
diagonal.  build_scheme makes one SchurFactor on these forms, with the
eigenbases of Ta and Tb: Mx^-1 Dx = Sx diag(lambda) Sx^-1, My^-1 Oy =
Sy diag(mu) Sy^-1.  One of two kernels solves, picked once per scheme:

- fast diagonalization (Lynch, Rice & Thomas 1964),
  X = Sx [(Sx^-1 Mx^-1 R My^-1 Sy^-T) / (c_phi + lambda_i + mu_j)] Sy^T,
  four stacked matrix products over the whole batch, where the eigenbases
  are well conditioned: kappa(Sx) kappa(Sy) eps <= SOLVE_RTOL (1-norm
  condition numbers), which keeps the kernel's a-priori error within the
  residual gate.  The products of kappa(Sx) kappa(Sy) on the studies'
  meshes: 1.9e3 for Table 1's (Test 1, 2x2/order 10), 6.4e2 for the Monte
  Carlo study's (Test 2, 2x2/order 8), 1.4e4 for the spatial study's
  reference (Test 2, 2x2/order 20); 2.8e14 for Test 1 on 8x8/order 10 and
  1.1e9 with zeta = 1e-2 on 2x2/order 10, which take dtrsyl.
- dtrsyl (the rest) solves the quasi-triangular equation in Ta and Tb
  (Bartels & Stewart, CACM 15(9), 1972) by one LAPACK call per sample and
  field.  A dtrsyl that perturbs a near-zero eigenvalue sum (info != 0) or
  rescales against overflow (scale != 1) is a failure, never a silent
  result.

L_phi is singular, and build_scheme raises SchemeError, when an eigenvalue
sum c_phi + lambda_i + mu_j is within dtrsyl's own threshold of zero, or,
on the diagonalization's meshes, within kappa(Sx) kappa(Sy) eps times the
largest sum of zero, where the kernel's a-priori error reaches 1.
A failed solve in a step raises SolverFailure.
These, DivergenceError and model.SingularNonlinearity are NumericalErrors.
Every solve must also pass the relative residual gate SOLVE_RTOL, measured
against the per-axis apply of the same left operator, after at most one
step of iterative refinement x <- x - L^-1 (L x - rhs), which runs only on a
miss.

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
samples are one array (B, k, n1d_x, n1d_y) (a StateBatch) of k slots, their
noise loads one array (B, 1 | 3, n1d_x, n1d_y) (one path shared by the
fields, or one per field).  The time loop carries the distinct fields only:
twin fields (field_map: the same c, c', initial callable and weight e, no
forcing, no noise or one shared path) are one trajectory, stepped once in a
shared slot, so Test 2's u and v take one slot (k = 2) and Test 1's fields
three.  Slot 0 holds u, so the slots' first fields, whose c, c', e and
forcing a slot takes, are one slice of (u, v, w): the per-field arrays are
read through it as views, and stepping never changes a scheme.  The loop's
results leave it as arrays with a slot per field (u, v, w): the final
states, the snapshots and each step's residuals and energies.  A state made
outside the loop has a slot per field.  A step makes one solve and one
fused apply of both sides for the whole stack (np.matmul broadcasts) and
one load of the nonlinearity with the forcings (staged once per scheme,
model.stage_forcing); on dtrsyl's meshes, dtrsyl runs once per sample and
slot.  The apply on the new state phi^n gives the residual gate its L phi^n
and the next step its right-hand side R phi^n, which the new
StateBatch carries; the time loop supplies the first from one apply of the
initial data, a one-sample stack, and a caller's state that carries none has
its R phi applied when it is stepped.  A sample that misses the gate in some
slot is refined there once, by one solve of all its slots, before the gate
fails it.  The checks hold per sample and slot, and a failure names its
sample and the first field of its slot (a pole's sample is the first index
nonlinear_f gives).  Every per-sample operation is the same BLAS or LAPACK
call whatever B and k are, so a sample's trajectory does not depend on its
batch (`run` is the batch of one), nor a field's on its twins.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache

import numpy as np
# Nothing in this package calls scipy.sparse.linalg; the module is kept bound
# here because perfbench/spans.py replaces `timestepper.spla` when it traces.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg.lapack import dgecon, dgees, dgeev, dgetrf, dgetrs, dpotrs, dtrsyl

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import (POLE, ModelSpec, NumericalError, SingularNonlinearity, nonlinear_f,
                    stage_forcing)
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increments

SOLVE_RTOL = 1e-10

NOISE_CONVENTIONS = ("paper", "increment")
NONLINEARITY_TIMES = ("extrapolated", "lagged")


class SchemeError(NumericalError, RuntimeError):
    """Left operator is singular."""


class SolverFailure(NumericalError, RuntimeError):
    """A linear solve failed or exceeded the residual tolerance."""


class DivergenceError(NumericalError, RuntimeError):
    """The state picked up non-finite entries."""


class KroneckerPair:
    """The operators L_f = c[f] M + A and R_f = cr[f] M - A on coefficient
    matrices X (..., n1d_x, n1d_y), with the mass M vec X = mx X my^T and the
    Kronecker sum A vec X = dx X my^T + mx X dy^T; c and cr act by field on a
    stack X (..., k, n1d_x, n1d_y) whose k slots hold the fields `rows`
    (a slice of u, v, w; all three by default), read as views of c and cr.
    `terms` gives (M X, A X) and `apply` (L X, R X) from the same five
    stacked products with 2D matrices, P = X my^T, Q = X dy^T, M X = mx P
    and A X = dx P + mx Q."""

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

    def apply(self, X: np.ndarray, rows: slice = slice(None)):
        """(L X, R X), by field, on a stack whose slots hold the fields `rows`."""
        MX, AX = self.terms(X)
        LX = self.c[rows, None, None] * MX
        LX += AX
        MX *= self.cr[rows, None, None]
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
    the SPD mass m, as cho_factor gives it), with p = q^T m^-1 and t's
    eigenbasis: (t, q, p, (lam, vr, lu, kappa)).  dgeev gives the
    eigenvalues lam and real eigenvectors vr of t (a conjugate pair's as
    (Re, Im) columns), lu is vr's LU and kappa its 1-norm condition number
    (inf if vr is singular or dgeev fails)."""
    chol, lower = f
    t, _, _, _, q, _, info = dgees(lambda w: None, dpotrs(chol, d, lower=lower)[0])
    if info:
        raise np.linalg.LinAlgError(f"no real Schur form (dgees info {info})")
    wr, wi, _, vr, info = dgeev(t, compute_vl=0)
    lu, piv, singular = dgetrf(vr)
    rcond = 0.0 if info or singular else dgecon(lu, np.abs(vr).sum(axis=0).max(), norm="1")[0]
    return (t, q, dpotrs(chol, q, lower=lower)[0].T,
            (wr + 1j * wi, vr, (lu, piv), 1.0 / rcond if rcond > 0 else np.inf))


def _eigenbasis(form):
    """The complex eigenvectors s = q V of form's m^-1 d (V those of t, from
    vr) and s^-1 m^-1 = V^-1 p, by the LU of vr."""
    _, q, p, (lam, vr, (lu, piv), _) = form
    w = dgetrs(lu, piv, p)[0]           # vr^-1 p
    s, sinv = (q @ vr).astype(complex), w.astype(complex)
    j = np.flatnonzero(lam.imag > 0)    # the first of each conjugate pair
    s[:, j] += 1j * s[:, j + 1]
    s[:, j + 1] = s[:, j].conj()
    sinv[j] = 0.5 * (w[j] - 1j * w[j + 1])
    sinv[j + 1] = sinv[j].conj()
    return s, sinv


class SchurFactor:
    """The factor of the field-stacked operator

        L_f vec X = (c[f] mx + dx) X my^T + mx X oy^T      (SPD mx, my)

    on the axes' forms (_schur_form; one object on a shared axis)
    mx^-1 dx = U ta U^T = Sx diag(lam) Sx^-1 and my^-1 oy = V tb V^T =
    Sy diag(mu) Sy^-1, by one of two kernels, picked once (`diag`):

    - fast diagonalization (Lynch, Rice & Thomas 1964), where the
      eigenbases are well conditioned, kappa(Sx) kappa(Sy) eps <= SOLVE_RTOL,
      which keeps its a-priori error within the residual gate:
      X = Re(Sx [(Px R Py^T) / d_f] Sy^T), Px = Sx^-1 mx^-1 (px) and
      likewise Py, with the divisors d_f = c[f] + lam_i + mu_j.  Conjugate
      pairs of mu contribute conjugate terms, so y keeps one eigenvalue of
      each pair (twice the eigenvector): the first product, of real R, and
      the last, which takes the real part, are then real products whose
      complex sides are views of their real ones, and the middle two are
      complex.
    - dtrsyl elsewhere, one call per right-hand side on the Bartels-Stewart
      equation (c[f] I + ta) Y + Y tb^T = px R py^T, Y = U^T X V,
      px = U^T mx^-1, py = V^T my^-1.

    `singular` names, per field, why L_f is singular (None if it is not):
    for dtrsyl, an eigenvalue sum c[f] + ta_i + tb_j (read off the blocks,
    _eigenvalues) within dtrsyl's threshold eps max(max|c[f] I + ta|,
    max|tb|) of zero; for the diagonalization, a divisor within
    kappa(Sx) kappa(Sy) eps max|d_f| of zero, where its a-priori error
    reaches 1.  A factor with a singular field builds no divisors.  `solve`
    takes the fields' ta or divisors through a slice `rows` of the fields,
    as views, so a stack of some of the fields needs no factor of its own.
    """

    def __init__(self, forms, c):
        (ta, u, px, (lam, *_, kx)), (tb, v, py, (mu, *_, ky)) = forms
        c, eps = np.asarray(c, dtype=float), np.finfo(float).eps
        self.diag = bool(kx * ky * eps <= SOLVE_RTOL)
        if not self.diag:
            eye, sums = np.eye(len(ta)), _eigenvalues(ta)[:, None] + _eigenvalues(tb)
            top, why = np.abs(tb).max(), {}
            for cf in dict.fromkeys(c.tolist()):
                gap, smin = np.abs(cf + sums).min(), eps * max(np.abs(cf * eye + ta).max(), top)
                why[cf] = (f"an eigenvalue sum is {gap:.1e}, within dtrsyl's threshold "
                           f"{smin:.1e} of zero") if gap <= smin else None
            self.singular = [why[cf] for cf in c.tolist()]
            # Fortran order, as dgees returns ta: dtrsyl then reads it without a copy
            shifted = {cf: np.asfortranarray(cf * eye + ta) for cf in why}
            self.u, self.px, self.ta, self.tb = u, px, [shifted[cf] for cf in c.tolist()], tb
            # right operands stored C-contiguous, as in KroneckerPair
            self.vt, self.pyt = np.ascontiguousarray(v.T), np.ascontiguousarray(py.T)
            return
        half = mu.imag >= 0     # y keeps one eigenvalue of each conjugate pair
        d = c[:, None, None] + (lam[:, None] + mu[half])
        mag = np.abs(d)
        self.singular = [f"a divisor is {lo:.1e} against {hi:.1e}, on eigenbases of "
                         f"condition number {kx * ky:.1e}" if kx * ky * eps * hi >= lo else None
                         for lo, hi in zip(mag.min(axis=(1, 2)), mag.max(axis=(1, 2)))]
        if any(self.singular):
            return      # a singular field gets no divisors
        self.d, (self.sx, self.px) = d, _eigenbasis(forms[0])
        sy, syinv = (self.sx, self.px) if forms[1] is forms[0] else _eigenbasis(forms[1])
        sy = np.ascontiguousarray(sy[:, half].conj()) * np.where(mu[half].imag > 0, 2.0, 1.0)
        # R Py^T is the real product R pyt, whose columns interleave (Re, Im) as
        # a complex array's memory does, and Re(C Sy^T) the real product of C's
        # (Re, Im) columns and syt's rows (Re, -Im)
        self.pyt = np.ascontiguousarray(syinv[half].T).view(float)
        self.syt = np.ascontiguousarray(sy.view(float).T)

    def solve(self, R: np.ndarray, rows: slice = slice(None)):
        """Solution X of L @ X = R for a stack R of shape (..., k, n1d_x, n1d_y)
        whose k slots hold the fields `rows` (all of them by default), and
        the kernel's scale and info for each right-hand side, as arrays of
        shape R.shape[:-2]: dtrsyl's, or 1 and 0 for the diagonalization,
        which neither scales nor perturbs."""
        lead = R.shape[:-2]
        if self.diag:
            Y = self.px @ (R @ self.pyt).view(complex)
            Y /= self.d[rows]
            return (self.sx @ Y).view(float) @ self.syt, np.ones(lead), np.zeros(lead, dtype=int)
        F = self.px @ R @ self.pyt
        flat = F.reshape(-1, *F.shape[-2:])
        scale, info = np.empty(len(flat)), np.empty(len(flat), dtype=int)
        ta = self.ta[rows]
        for i, f in enumerate(flat):
            flat[i], scale[i], info[i] = dtrsyl(ta[i % len(ta)], self.tb, f,
                                                trana="N", tranb="T")
        return self.u @ F @ self.vt, scale.reshape(lead), info.reshape(lead)


@dataclass(frozen=True, eq=False)
class SchemeOperators:
    """The Crank-Nicolson scheme of one (spec, mesh, basis, tau), which it
    owns; frozen, so a scheme shared by threads or workers never changes:
    a stack of some of the fields reads c, c' and the factor's divisors or
    shifted forms through a slice of the fields (`rows`), and stepping adds
    no cache.

    stiffness is the pair of the mass and the unit diffusion (for the energy
    norm, KroneckerPair.terms); sides the fields' Crank-Nicolson pair, whose
    one `apply` gives both L X and R X of a stack, with c = (c_u, c_v, c_w)
    and c' likewise; factor solves L: by fast diagonalization where the
    per-axis eigenbases are well conditioned, kappa(Sx) kappa(Sy) eps <=
    SOLVE_RTOL, by dtrsyl elsewhere (factor.diag).  forcing is spec.forcing
    staged on quad's grid once, at build time (a function t -> (3, nx, ny)
    samples), or None without forcing.
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
    time loop work on.  A batch carries no time: the step index passed to
    `step` names the level.

    coeffs has shape (B, k, n1d_x, n1d_y): sample, slot, then the slot's
    coefficient matrix (global dof gx * n1d_y + gy).  field_map gives the
    slot of each field (u, v, w): (0, 1, 2), a slot per field, except in the
    time loop, whose twin fields share one (field_map).  sample_ids name the
    samples in failures (None when they have no ids).  right is R coeffs,
    the Crank-Nicolson right-hand side of the next step before its loads:
    `step` sets it on the state it makes, and the time loop on the state it
    starts from; it is None on any other state (`step` then applies R
    itself) and `step` never writes into it.
    """

    coeffs: np.ndarray
    sample_ids: tuple | None = None
    right: np.ndarray | None = dc_field(default=None, repr=False, compare=False)
    field_map: tuple = (0, 1, 2)


@cache
def _slot_fields(field_map: tuple) -> slice:
    """The rows of the per-field arrays (u, v, w) that the slots of a field
    map take, a slot its first field's: one slice, since slot 0 holds u and
    the slots' first fields are then (0,), (0, 1), (0, 2) or (0, 1, 2).
    ValueError for a map whose slot 0 does not hold u."""
    fields = tuple(field_map.index(s) for s in range(max(field_map) + 1))
    rows = slice(0, fields[-1] + 1, 2 if fields == (0, 2) else 1)
    if tuple(range(3)[rows]) != fields:
        raise ValueError(f"field map {field_map}: slot 0 must hold u")
    return rows


def _tag(exc: Exception, state: StateBatch, b: int) -> Exception:
    """exc with the id of the batch's sample b attached as exc.sample_id."""
    exc.sample_id = None if state.sample_ids is None else state.sample_ids[b]
    return exc


def step(ops: SchemeOperators, state: StateBatch, noise=None,
         prev_state: StateBatch | None = None, *, step_index: int):
    """Advance a batch of states, whose samples advance together, one step
    of size ops.tau, from t_{n-1} to t_n for n = step_index (>= 1): the
    forcing is sampled at (step_index - 1/2) tau.

    Each slot of the state (state.field_map) is stepped with the c, c', e
    and forcing of its first field; prev_state has the same map.  noise is
    the load of the batch's noise increments (sample_increments), shape
    (B, 1 | k, n1d_x, n1d_y), or None for a deterministic step.  prev_state
    supplies phi^{n-2} for the extrapolated nonlinearity level; when absent
    the nonlinearity is lagged.  state.right, when set, is the right-hand
    side R phi^{n-1}: the time loop supplies the first, and each step the
    next one.

    A sample whose solve misses the residual gate in some slot is refined
    once, x <- x - L^-1 (L x - rhs) by one solve of all its slots, in the
    slots that missed, and is gated again; a kernel's failure (dtrsyl's
    info or scale) is never refined.

    Returns the new StateBatch, with the state's field map, and the relative
    solve residuals, shape (B, k).  A failure of one sample carries its id
    as sample_id and names the first field of its slot.
    """
    spec, tau, quad, sides = ops.spec, ops.tau, ops.quad, ops.sides
    old, rows = state.coeffs, _slot_fields(state.field_map)    # the slots' fields

    # the Crank-Nicolson right-hand side R phi^{n-1}: carried over from the
    # residual gate of the step that made the state (or from the time loop's
    # apply of the initial data), else applied here.  It may be the state's
    # carried array, so the loads below replace it
    rhs = state.right if state.right is not None else sides.apply(old, rows)[1]

    samples = []    # the nonlinearity (B samples) and the forcings, loaded at once
    nonlinear = spec.wp != 0.0 and any(spec.e)
    if nonlinear:
        levels = []     # at u's slot and v's, one if they share it
        for s in dict.fromkeys(state.field_map[:2]):
            x = old[:, s]
            if ops.nonlinearity_time == "extrapolated" and prev_state is not None:
                # the extrapolation is linear, so it is done on coefficients
                x = 1.5 * x - 0.5 * prev_state.coeffs[:, s]
            levels.append(quad.values(x))
        try:
            samples.append(nonlinear_f(spec, levels[0], levels[-1]))
        except SingularNonlinearity as exc:     # the pole's sample is its first index
            raise _tag(SingularNonlinearity(POLE.format(f" at step {step_index}")),
                       state, exc.index[0]) from None
    if ops.forcing is not None:
        samples.append(quad.finite(ops.forcing((step_index - 0.5) * tau)))
    if samples:
        loads = quad.load(np.concatenate(samples))
        if nonlinear:
            weights = (tau * spec.wp * np.array(spec.e))[rows, None, None]
            rhs = rhs - weights * loads[:len(old), None]
        if ops.forcing is not None:
            rhs = rhs + tau * loads[-3:][rows]

    if noise is not None:
        # a shared path (one noise load per sample) broadcasts over the slots
        rhs = rhs - noise if ops.noise_convention == "paper" else rhs + noise

    sol, scale, info = ops.factor.solve(rhs, rows)
    gap, right = sides.apply(sol, rows)      # L phi^n, and R phi^n for the next step
    gap -= rhs
    residuals = _relative(gap, rhs)
    bad, miss = (info != 0) | (scale != 1.0), residuals > SOLVE_RTOL
    failed = bad | miss
    if failed.any():
        # refine each sample that misses the gate (and whose kernel did not fail) once
        redo = np.flatnonzero(miss.any(axis=1) & ~bad.any(axis=1))
        if len(redo):
            before, residuals = residuals, residuals.copy()
            fix, scale[redo], info[redo] = ops.factor.solve(gap[redo], rows)
            fix[~miss[redo]] = 0.0      # a slot that met the gate keeps its value
            sol[redo] -= fix
            gap, right[redo] = sides.apply(sol[redo], rows)
            gap -= rhs[redo]
            residuals[redo] = _relative(gap, rhs[redo])
            bad = (info != 0) | (scale != 1.0)
            failed = bad | (residuals > SOLVE_RTOL)
        if failed.any():
            b, s = np.argwhere(failed)[0]
            why = (f"dtrsyl info {info[b, s]}, scale {scale[b, s]}" if bad[b, s] else
                   f"relative residual {residuals[b, s]:.3e} exceeds {SOLVE_RTOL:.1e}"
                   + (f" after one refinement (from {before[b, s]:.3e})" if b in redo else ""))
            raise _tag(SolverFailure(f"solve for field {'uvw'[rows][s]} at step "
                                     f"{step_index}: {why}"), state, b)

    if not np.isfinite(sol).all():
        b, s = np.argwhere(~np.isfinite(sol).all(axis=(2, 3)))[0]
        raise _tag(DivergenceError(f"non-finite state after step {step_index} "
                                   f"(field {'uvw'[rows][s]})"), state, b)
    return StateBatch(sol, state.sample_ids, right, state.field_map), residuals


def _relative(gap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The relative residuals |gap| / |rhs| (Frobenius) of stacks (..., n1d_x, n1d_y)."""
    gnorm, bnorm = (np.sqrt(np.einsum("...ij,...ij->...", x, x)) for x in (gap, rhs))
    return gnorm / np.where(bnorm > 0, bnorm, 1.0)


def energy_norm(ops: SchemeOperators, coeffs: np.ndarray):
    """Discrete weighted energy norm used by the stability diagnostic, of
    each state of a stack coeffs (..., 3, n1d_x, n1d_y), shape coeffs.shape[:-3]:

    sqrt( sum_phi  h1 * (phi' M phi) + (tau/2) * zeta * (phi' K phi) )
    with tau = ops.tau, h1 = max(1, 1 + (tau/2) * r) and K the
    unit-coefficient diffusion operator, both applied axis by axis.  A
    state's sums run over its own entries alone, whatever the stack.
    """
    spec, tau = ops.spec, ops.tau
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    mass, stiff = ((coeffs * x).reshape(*coeffs.shape[:-3], -1).sum(axis=-1)
                   for x in ops.stiffness.terms(coeffs))
    return np.sqrt(h1 * mass + 0.5 * tau * spec.zeta * stiff)


@dataclass
class Trajectory:
    """Result of one sample path: the final state, the snapshots {t: (3, n)}
    and its row of advance's residuals and energies (empty unless record_reports)."""

    final: StateVector
    snapshots: dict
    residuals: np.ndarray
    energies: np.ndarray


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


def field_map(ops: SchemeOperators, sampler: QWienerSampler | None) -> tuple:
    """The slot of each field (u, v, w) in the time loop's stack.

    Fields f and g are twins, one trajectory that the loop steps once in a
    shared slot, when all of these hold: the same operator (c_f = c_g and
    c'_f = c'_g), the same initial callable (one object), the same weight
    e_f = e_g of the nonlinear load, no forcing, and noise that is absent
    or one path shared by the fields.  Test 2 gives (0, 0, 1) (u and v are
    twins), Test 1 and per-field noise (0, 1, 2).
    """
    spec, sides = ops.spec, ops.sides
    shared = sampler is None or sampler.amplitude == 0.0 or sampler.shared
    if spec.forcing is not None or not shared:
        return (0, 1, 2)
    keys = [(sides.c[f], sides.cr[f], id(spec.init[f]), spec.e[f]) for f in range(3)]
    return tuple(list(dict.fromkeys(keys)).index(key) for key in keys)


def advance(ops: SchemeOperators, init: np.ndarray, grid, sample_ids,
            sampler: QWienerSampler | None = None,
            noise_workspace: NoiseWorkspace | None = None,
            record_reports: bool = False):
    """The time loop: advance the samples sample_ids as one batch from the
    projected initial data init (3, n1d_x, n1d_y) over grid (from time_grid).

    The loop carries the distinct fields only: its states are the stacks
    (B, k, n1d_x, n1d_y) of the slots of field_map(ops, sampler), each twin
    field stepped once.  Each step draws the loads of the batch's noise
    increments (one path per sample, or one per sample and field, on a
    workspace checked first) and makes one `step` call; the first step's
    right-hand side is one apply of init's slots, repeated over the batch.
    Returns arrays with a slot per field (u, v, w): the final coefficients
    (B, 3, n1d_x, n1d_y), the snapshots {time: (B, 3, n1d_x, n1d_y)}, and
    each step's relative solve residuals (B, n_steps, 3) and energy norms
    (B, n_steps; one energy_norm call a step), empty unless record_reports.
    """
    n_steps, snap_at = grid
    ids = tuple(sample_ids)
    fmap = field_map(ops, sampler)
    expand, rows = list(fmap), _slot_fields(fmap)
    init = init[rows]
    right = np.repeat(ops.sides.apply(init[None], rows)[1], len(ids), axis=0)
    state = StateBatch(np.repeat(init[None], len(ids), axis=0), ids, right, fmap)
    snapshots = dict.fromkeys(snap_at.get(0, ()), state.coeffs[:, expand])
    noisy = sampler is not None and sampler.amplitude > 0.0
    if noisy:
        if noise_workspace is None:
            noise_workspace = NoiseWorkspace(sampler, ops.mesh, ops.basis,
                                             projector=ops.projector)
        noise_workspace.check(sampler, ops.mesh, ops.basis)
        components = (None,) if sampler.shared else (0, 1, 2)
    recorded = n_steps if record_reports else 0
    residuals, energies = np.empty((len(ids), recorded, 3)), np.empty((len(ids), recorded))
    prev = noise = None
    for k in range(1, n_steps + 1):
        if noisy:
            noise = sample_increments(sampler, ids, k, ops.tau, noise_workspace, components)
        new_state, res = step(ops, state, noise, prev_state=prev, step_index=k)
        prev, state = state, new_state
        if record_reports:
            residuals[:, k - 1] = res[:, expand]
            energies[:, k - 1] = energy_norm(ops, state.coeffs[:, expand])
        if k in snap_at:
            snapshots.update(dict.fromkeys(snap_at[k], state.coeffs[:, expand]))
    return state.coeffs[:, expand], snapshots, residuals, energies


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
    one-sample batch of `advance`, whose arrays become a Trajectory.

    T and the snapshot times must be on the grid t_n = n tau (time_grid checks
    them before any scheme).  Prebuilt ops (checked by scheme_for) and a noise
    workspace (checked by `advance`) amortize assembly and factorization
    across samples; identical inputs produce bit-identical trajectories.
    Without ops the scheme has build_scheme's default options; others come
    with a caller's ops.  The per-step residuals and energies are computed
    only with record_reports (default off).  The final state is stamped
    with T, as run_ensemble stamps its mean.
    """
    grid = time_grid(T, tau, snapshot_times)
    ops = scheme_for(spec, mesh, basis, tau, ops)
    final, snapshots, residuals, energies = advance(
        ops, initial_data(ops), grid, (sample_id,), sampler=sampler,
        noise_workspace=noise_workspace, record_reports=record_reports)
    return Trajectory(final=StateVector(*final[0].reshape(3, -1), t=T),
                      snapshots={t: s[0].reshape(3, -1) for t, s in snapshots.items()},
                      residuals=residuals[0], energies=energies[0])
