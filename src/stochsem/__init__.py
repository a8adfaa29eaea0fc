"""Legendre spectral element solver for a coupled stochastic
advection-reaction-diffusion system, with a Monte Carlo experiment harness."""

__version__ = "0.1.0"

from .basis import Basis1D, make_basis
from .mesh import Mesh2D, build_mesh
from .model import ModelSpec, nonlinear_f, test1_spec, test2_spec
from .assembly import StateVector, evaluate_grid, L2Projector
from .stochastic import NoiseIncrement, QWienerSampler, sample_increment, spectrum
from .timestepper import SchemeOperators, Trajectory, build_scheme, energy_norm, run, step
from .montecarlo import (EnsembleResult, ErrorReport, convergence_order,
                         error_report, run_ensemble)

__all__ = [
    "Basis1D", "make_basis",
    "Mesh2D", "build_mesh",
    "ModelSpec", "nonlinear_f", "test1_spec", "test2_spec",
    "StateVector", "evaluate_grid", "L2Projector",
    "NoiseIncrement", "QWienerSampler", "sample_increment", "spectrum",
    "SchemeOperators", "Trajectory", "build_scheme", "energy_norm", "run", "step",
    "EnsembleResult", "ErrorReport", "convergence_order", "error_report",
    "run_ensemble",
]
