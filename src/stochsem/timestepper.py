"""Linearized Crank-Nicolson time stepping for the coupled system.

One step advances each field phi in {u, v, w} by a single linear solve

    L_phi phi^n = R_phi phi^{n-1} - tau * wp * e_i * load(f(u*, v*))
                  + tau * load(forcing_i(t_{n-1/2})) + noise terms,

with L_phi = (1 + (tau/2) r_phi) Mass + (tau/2)(xi Advection + zeta Diffusion)
(r_w = r, r_u = r_v = 0) and R_phi its mirror with negated tau/2 terms.  Each
is built directly from per-axis entries (Quadrature2D.operator).  Left
operators are factorized once and reused across steps and samples.

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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import L2Projector, Quadrature2D, StateVector
from .basis import Basis1D
from .mesh import Mesh2D
from .model import ModelSpec, nonlinear_f
from .stochastic import NoiseWorkspace, QWienerSampler, sample_increment

SOLVE_RTOL = 1e-10

NOISE_CONVENTIONS = ("paper", "increment")
NONLINEARITY_TIMES = ("extrapolated", "lagged")


class SchemeError(RuntimeError):
    """Left operator could not be factorized."""


class SolverFailure(RuntimeError):
    """A linear solve exceeded the residual tolerance."""


class DivergenceError(RuntimeError):
    """The state picked up non-finite entries."""


@dataclass
class StepReport:
    """Per-step diagnostics: relative solve residuals and the energy norm
    (None in the reports `run` discards)."""

    step: int
    residuals: tuple[float, float, float]
    energy: float | None


@dataclass
class SchemeOperators:
    """Assembled and factorized operators of one (mesh, spec, tau) scheme."""

    mesh: Mesh2D
    basis: Basis1D
    tau: float
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix            # unit diffusion, for the energy norm
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
    """Build the global operators on the projector's quadrature grid and
    factorize the left-hand sides.

    u and v share identical left/right operators; w folds the reaction term
    into the mass coefficient of both sides.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if nonlinearity_time not in NONLINEARITY_TIMES:
        raise ValueError(f"unknown nonlinearity_time {nonlinearity_time!r}")
    if noise_convention not in NOISE_CONVENTIONS:
        raise ValueError(f"unknown noise convention {noise_convention!r}")

    projector = L2Projector(mesh, basis)
    quad = projector.quad
    half = 0.5 * tau

    def side(sign, r):   # Mass +- (tau/2)(r Mass + zeta Diffusion + xi Advection)
        return quad.operator(1.0 + sign * half * r, sign * half * spec.zeta,
                             sign * half * spec.xi)

    ops = SchemeOperators(
        mesh=mesh, basis=basis, tau=tau,
        mass=projector.mass, stiffness=quad.operator(d=1.0), quad=quad, projector=projector,
        nonlinearity_time=nonlinearity_time, noise_convention=noise_convention,
    )
    ops.left = {"u": side(1, 0.0), "w": side(1, spec.r)}
    ops.left["v"] = ops.left["u"]
    ops.right = {"u": side(-1, 0.0), "w": side(-1, spec.r)}
    ops.right["v"] = ops.right["u"]
    try:
        fac_uv = spla.splu(ops.left["u"].tocsc())
        fac_w = spla.splu(ops.left["w"].tocsc())
    except RuntimeError as exc:
        raise SchemeError(
            f"left operator factorization failed for tau={tau}, "
            f"mesh {mesh.nex}x{mesh.ney} order {mesh.order}: {exc}") from exc
    ops.factors = {"u": fac_uv, "v": fac_uv, "w": fac_w}
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

    nl_load = None
    if spec.wp != 0.0 and any(spec.e):
        u, v = state.u, state.v
        if ops.nonlinearity_time == "extrapolated" and prev_state is not None:
            # the extrapolation is linear, so it is done on coefficients
            u = 1.5 * u - 0.5 * prev_state.u
            v = 1.5 * v - 0.5 * prev_state.v
        nl_load = quad.load(nonlinear_f(spec, quad.values(u), quad.values(v)))

    noise_load = None
    if noise_n is not None or noise_nm1 is not None:
        zn = _noise_fields(noise_n, state.n)
        zm = _noise_fields(noise_nm1, state.n)
        delta = zm - zn if ops.noise_convention == "paper" else zn - zm
        # (n,) for shared noise, (n, 3) per field: one product either way
        noise_load = ops.mass @ delta.T

    new_fields = []
    residuals = []
    for idx, name in enumerate("uvw"):
        old = state.fields[idx]
        rhs = ops.right[name] @ old
        if nl_load is not None:
            rhs = rhs - tau * spec.wp * spec.e[idx] * nl_load
        if spec.forcing is not None:
            rhs = rhs + tau * quad.load(quad.sample(spec.forcing[idx], t_half))
        if noise_load is not None:
            rhs = rhs + (noise_load if noise_load.ndim == 1 else noise_load[:, idx])
        sol = ops.factors[name].solve(rhs)
        denom = np.linalg.norm(rhs)
        res = np.linalg.norm(ops.left[name] @ sol - rhs) / (denom if denom > 0 else 1.0)
        if res > SOLVE_RTOL:
            raise SolverFailure(
                f"solve for field {name} at step {step_index}: "
                f"relative residual {res:.3e} exceeds {SOLVE_RTOL:.1e}")
        residuals.append(res)
        new_fields.append(sol)

    new_state = StateVector(*new_fields, t=state.t + tau)
    if not new_state.is_finite():
        raise DivergenceError(f"non-finite state after step {step_index}")
    energy = energy_norm(ops, spec, new_state, tau) if _energy else None
    report = StepReport(step=step_index, residuals=tuple(residuals), energy=energy)
    return new_state, report


def energy_norm(ops: SchemeOperators, spec: ModelSpec, state: StateVector,
                tau: float) -> float:
    """Discrete weighted energy norm used by the stability diagnostic.

    sqrt( sum_phi  h1 * (phi' M phi) + (tau/2) * zeta * (phi' K phi) )
    with h1 = max(1, 1 + (tau/2) * r) and K the unit-coefficient
    diffusion operator.
    """
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    total = 0.0
    for f in state.fields:
        total += h1 * float(f @ (ops.mass @ f))
        total += 0.5 * tau * spec.zeta * float(f @ (ops.stiffness @ f))
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
