"""PDE data: constant coefficients, nonlinearities, test-problem configurations.

The solved system couples three scalar fields (u, v, w) through a shared
reaction term:

    d(phi) + [ xi (phi_x + phi_y) - zeta lap(phi)
               + wp * e_i * f(u, v) + r * w * [phi == w] ] dt
        = forcing_i dt + dW

with homogeneous Dirichlet boundary conditions.  The coefficients xi, zeta
and r are numbers; initial data are callables (x, y) -> array and forcings
callables (x, y, t) -> array, all vectorized over numpy inputs.  The
problem data defined here are module-level functions or functools.partials
of them, never lambdas or closures, so a spec and the scheme built from it
pickle: a process pool needs that (montecarlo.run_ensemble, workers > 1).

Two nonlinearities are supported:

    saturating_sum : f(u, v) = u/(kappa1 + u) + v/(kappa2 + v)
    test1_product  : f(u, v) = u*v / ((1 + u)(v + 2))

Test problem 1 carries a manufactured solution; its forcing terms are the
closed forms obtained by substituting the exact triple into the equations, so
the noise-free residual vanishes identically (this is enforced by tests).

A time stepper samples the forcings on one fixed grid at every step, so
each scheme stages them on that grid once, when it is built
(timestepper.build_scheme calls stage_forcing): staging gives a function of
t that returns the three samples stacked.  A StagedForcing, such as Test 1's,
is one function of the grid that computes its time-independent spatial
factors at staging, once, and per call only what depends on t; any other
forcing triple is sampled field by field at every call.

NumericalError is the base of every numerical failure the package raises
(the CLI's exit 3): here SingularNonlinearity, in timestepper SchemeError,
SolverFailure and DivergenceError.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

log = logging.getLogger(__name__)

_POLE_TOL = 1e-12
POLE = "singular nonlinearity{}: denominator within 1e-12 of a pole"   # step: " at step n"
NONLINEARITIES = ("saturating_sum", "test1_product")    # ModelSpec.nonlinearity

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]
TimeField = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def const_field(c: float) -> Field:
    return partial(_const, float(c))


def _const(c, x, y):
    return np.full(np.broadcast(x, y).shape, c)


def smooth_init(x, y):
    """The smooth initial datum x(1-x)y(1-y)."""
    return np.asarray(x) * (1.0 - np.asarray(x)) * np.asarray(y) * (1.0 - np.asarray(y))


class StagedForcing(tuple):
    """A forcing triple whose fields come from one function of the grid.

    stage(x, y) computes what does not depend on t once and returns a
    function t -> the three forcing samples stacked, shape (3, ...); the
    pointwise field i, (x, y, t) -> stage(x, y)(t)[i], goes through it.
    """

    def __new__(cls, stage):
        self = super().__new__(cls, (partial(_staged_field, stage, i) for i in range(3)))
        self.stage = stage
        return self

    def __getnewargs__(self):     # copy and pickle rebuild from stage
        return (self.stage,)


def _staged_field(stage, i, x, y, t):
    return stage(x, y)(t)[i]


def stage_forcing(forcing, x, y):
    """The forcing triple on the grid (x, y), as a function t -> samples
    stacked (3, *broadcast shape of x, y); see the module docstring."""
    if isinstance(forcing, StagedForcing):
        return forcing.stage(x, y)
    return partial(_sampled_forcing, forcing, x, y, np.broadcast(x, y).shape)


def _sampled_forcing(forcing, x, y, shape, t):
    return np.stack([np.broadcast_to(np.asarray(f(x, y, t), dtype=float), shape)
                     for f in forcing])


class NumericalError(Exception):
    """Base of the numerical failures: the problem is well posed, the
    computation failed."""


class SingularNonlinearity(NumericalError, ValueError):
    """The nonlinearity met a pole (within 1e-12); index is its first point (C order)."""


@dataclass(frozen=True)
class ModelSpec:
    """Complete problem data for one configuration of the system."""

    xi: float                     # advection speed, applied to (d/dx + d/dy)
    zeta: float                   # diffusivity, must be >= 0
    r: float                      # reaction coefficient (acts on w only)
    wp: float
    e: tuple[float, float, float]
    kappa: tuple[float, float]
    nonlinearity: str             # one of NONLINEARITIES
    init: tuple[Field, Field, Field]
    forcing: Optional[tuple[TimeField, TimeField, TimeField]] = None
    exact: Optional[tuple[TimeField, TimeField, TimeField]] = None
    exact_grad: Optional[tuple] = None   # per field: (d/dx, d/dy) callables
    name: str = "custom"

    def __post_init__(self):
        for name in ("xi", "zeta", "r", "wp"):
            c = getattr(self, name)
            if not math.isfinite(c):
                raise ValueError(f"coefficient {name} must be finite, got {c}")
        if self.zeta < 0:
            raise ValueError(f"coefficient zeta (diffusivity) must be >= 0, got {self.zeta}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity selector {self.nonlinearity!r}")
        if not all(math.isfinite(k) and k > 0 for k in self.kappa):
            raise ValueError(f"kappa constants must be finite and positive, got {self.kappa}")

    def with_wp(self, wp: float) -> "ModelSpec":
        """Copy with a different nonlinearity strength (wp = 0 disables it)."""
        return replace(self, wp=float(wp))


def nonlinear_f(spec: ModelSpec, u, v):
    """Reaction value f(u, v) for the spec's selector (vectorized).

    Raises SingularNonlinearity at the first point (C order) where a
    denominator comes within 1e-12 of a pole.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.nonlinearity == "saturating_sum":
        k1, k2 = spec.kappa
        d1 = k1 + u
        d2 = k2 + v
        near = (np.abs(d1) < _POLE_TOL) | (np.abs(d2) < _POLE_TOL)
    else:
        den = (1.0 + u) * (v + 2.0)
        near = np.abs(den) < _POLE_TOL
    if np.any(near):
        exc = SingularNonlinearity(POLE.format(""))
        exc.index = np.unravel_index(np.argmax(near), near.shape)
        raise exc
    return u / d1 + v / d2 if spec.nonlinearity == "saturating_sum" else u * v / den


# ---------------------------------------------------------------------------
# Test problem 1: manufactured solution on the unit square
# ---------------------------------------------------------------------------

_PI = math.pi
TEST1_DIFFUSIVITY = 1e-3


def _rho(x, y):
    return np.sin(_PI * x) * np.sin(_PI * y)


def test1_exact(x, y, t):
    """Exact triple (u, v, w) = (e^{-5t}, e^{-2t}, e^{-3t}) * sin(pi x) sin(pi y)."""
    r = _rho(x, y)
    return (np.exp(-5.0 * t) * r, np.exp(-2.0 * t) * r, np.exp(-3.0 * t) * r)


def _test1_exact_field(i, x, y, t):
    return test1_exact(x, y, t)[i]


def _test1_grad(decay, dx, x, y, t):
    fx, fy = (np.cos, np.sin) if dx else (np.sin, np.cos)
    return np.exp(-decay * t) * _PI * fx(_PI * x) * fy(_PI * y)


_TEST1_RATES = ((5.0, 0.0), (2.0, 0.0), (3.0, 2.0))   # (decay, reaction) of u, v, w


def _test1_stage(wp, x, y):
    # phi_t + phi_x + phi_y - D lap(phi) + reaction phi + nonlinearity
    # for phi = e^{-decay t} rho: rho, phi_x + phi_y and each field's
    # spatial factor are computed once, the nonlinear term once per t
    sx, sy = np.sin(_PI * x), np.sin(_PI * y)
    rho = sx * sy
    cxy = _PI * (np.cos(_PI * x) * sy + sx * np.cos(_PI * y))
    space = [(2.0 * TEST1_DIFFUSIVITY * _PI**2 - decay + reaction) * rho + cxy
             for decay, reaction in _TEST1_RATES]
    return partial(_test1_forcing_at, wp, rho, space)


def _test1_forcing_at(wp, rho, space, t):
    u, v = np.exp(-5.0 * t) * rho, np.exp(-2.0 * t) * rho
    nl = wp * u * v / ((1.0 + u) * (v + 2.0))
    return np.stack([np.exp(-decay * t) * g + nl for (decay, _), g in zip(_TEST1_RATES, space)])


def test1_spec(prefactor: float = 1.0) -> ModelSpec:
    """Test problem 1: advection speed 1, diffusivity 1e-3, reaction 2 on w,
    product nonlinearity with strength 0.6 * prefactor, manufactured forcing.

    The per-equation forcings are the closed forms obtained by substituting
    the exact solution triple into the noise-free equations; the nonlinear
    contribution 0.6 * prefactor * uv/((1+u)(v+2)) is identical in all three.
    They form one StagedForcing.
    """
    wp = 0.6 * prefactor
    return ModelSpec(
        xi=1.0,
        zeta=TEST1_DIFFUSIVITY,
        r=2.0,
        wp=wp,
        e=(1.0, 1.0, 1.0),
        kappa=(1.0, 1.0),
        nonlinearity="test1_product",
        init=(_rho, _rho, _rho),
        forcing=StagedForcing(partial(_test1_stage, wp)),
        exact=tuple(partial(_test1_exact_field, i) for i in range(3)),
        exact_grad=tuple((partial(_test1_grad, decay, True), partial(_test1_grad, decay, False))
                         for decay, _ in _TEST1_RATES),
        name="test1",
    )


# ---------------------------------------------------------------------------
# Test problem 2: noise-driven groundwater model on the unit square
# ---------------------------------------------------------------------------

TEST2_DIFFUSIVITY = 1e-4


def _gaussian_bump(amp, cx, cy, width, x, y):
    return amp * np.exp(-((np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2)
                        / (2.0 * width**2))


def test2_spec(init_kind: str = "smooth",
               delta_center: tuple[float, float] = (0.5, 0.5),
               delta_width: float = 0.05,
               prefactor: float = 1.0) -> ModelSpec:
    """Test problem 2: advection speed 1, diffusivity 1e-4, reaction 2 on w,
    no deterministic forcing (the dynamics are noise-driven).

    init_kind "smooth" uses x(1-x)y(1-y); "delta" uses a unit-mass Gaussian
    bump of the given width.  The nominal point source sits at the domain
    corner, where every basis function vanishes, so the bump is centered at
    delta_center (default (0.5, 0.5)) instead; the relocation is logged.
    """
    if init_kind not in ("smooth", "delta"):
        raise ValueError(f"init_kind must be 'smooth' or 'delta', got {init_kind!r}")
    if init_kind == "delta":
        if not (math.isfinite(delta_width) and delta_width > 0):
            raise ValueError(f"delta_width must be finite and positive, got {delta_width}")
        cx, cy = delta_center
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValueError(f"delta_center {delta_center} outside the unit square")
        log.info("point-source initial data realized as Gaussian bump at %s, width %g",
                 delta_center, delta_width)

        init = partial(_gaussian_bump, 1.0 / (2.0 * _PI * delta_width**2), cx, cy, delta_width)
    else:
        init = smooth_init

    return ModelSpec(
        xi=1.0,
        zeta=TEST2_DIFFUSIVITY,
        r=2.0,
        wp=0.6 * prefactor,
        e=(1.0, 1.0, 1.0),
        kappa=(1.0, 1.0),
        nonlinearity="test1_product",
        init=(init, init, init),
        forcing=None,
        exact=None,
        name=f"test2_{init_kind}",
    )
