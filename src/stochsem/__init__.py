"""Legendre spectral element solver for a coupled stochastic
advection-reaction-diffusion system, with a Monte Carlo experiment harness."""

__version__ = "0.1.0"

from .basis import (Basis1D, BandedMatrix1D, gauss_rule, legendre_eval,
                    make_basis, mass_1d, shen_deriv, shen_eval, stiffness_1d)
from .mesh import Mesh2D, build_mesh, locate
from .model import ModelSpec, nonlinear_f, test1_spec, test2_spec
from .assembly import (StateVector, assemble, evaluate, evaluate_grid,
                       load_vector, project_L2, L2Projector)
from .stochastic import (NoiseIncrement, QWienerSampler, sample_increment,
                         spectrum, spectrum_to_csv)
from .timestepper import (SchemeOperators, StepReport, Trajectory, build_scheme,
                          energy_norm, run, step)
from .montecarlo import (EnsembleResult, ErrorReport, convergence_order,
                         error_report, run_ensemble)

__all__ = [
    "Basis1D", "BandedMatrix1D", "gauss_rule", "legendre_eval", "make_basis",
    "mass_1d", "shen_deriv", "shen_eval", "stiffness_1d",
    "Mesh2D", "build_mesh", "locate",
    "ModelSpec", "nonlinear_f", "test1_spec", "test2_spec",
    "StateVector", "assemble", "evaluate", "evaluate_grid",
    "load_vector", "project_L2", "L2Projector",
    "NoiseIncrement", "QWienerSampler", "sample_increment", "spectrum",
    "spectrum_to_csv",
    "SchemeOperators", "StepReport", "Trajectory", "build_scheme",
    "energy_norm", "run", "step",
    "EnsembleResult", "ErrorReport", "convergence_order", "error_report",
    "run_ensemble",
]
