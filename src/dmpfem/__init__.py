"""Monotonicity-preserving nonlinear stabilization for 2D FE transport."""

from .assembly import (SparseOperator, VelocityModel, assemble_convection,
                       assemble_forcing, assemble_mass, lumped_masses)
from .bench import (ProblemSpec, convergence_study, dmp_audit, error_norms,
                    local_dmp_audit, make_problem)
from .mesh import Mesh2D, P1, Q1, build_structured
from .solvers import (SolverReport, anderson_solve, line_search, newton_solve,
                      project_admissible)
from .stabilization import (StabParams, assemble_B, assemble_nonlinear_mass,
                            detector_values, limiter_f, smooth_abs_lower,
                            smooth_abs_upper, smooth_max, viscosity,
                            viscosity_symmetric_mass)
from .system import AdmissibleBounds, DirichletBC, ResidualSystem
from .timeloop import TimeConfig, run_steady, run_transient, step_backward_euler

__version__ = "0.1.0"

__all__ = [
    "AdmissibleBounds", "DirichletBC", "Mesh2D", "P1", "ProblemSpec", "Q1",
    "ResidualSystem", "SolverReport", "SparseOperator", "StabParams",
    "TimeConfig", "VelocityModel", "anderson_solve", "assemble_B",
    "assemble_convection", "assemble_forcing", "assemble_mass",
    "assemble_nonlinear_mass", "build_structured", "convergence_study",
    "detector_values", "dmp_audit", "error_norms", "limiter_f", "line_search",
    "local_dmp_audit", "lumped_masses", "make_problem", "newton_solve",
    "project_admissible", "run_steady", "run_transient", "smooth_abs_lower",
    "smooth_abs_upper", "smooth_max", "step_backward_euler", "viscosity",
    "viscosity_symmetric_mass",
]
