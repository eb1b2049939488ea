"""Backward-Euler transient driver and steady-state driver.

Problems are duck-typed: they provide ``velocity`` (a VelocityModel),
``inflow_where(x, y)`` (boundary mask), ``u_dirichlet(x, y, t)``, ``u0(x, y)``
for transient runs, and optionally ``g(x, y)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stabilization as stab
from .assembly import assemble_forcing
from .solvers import anderson_solve, newton_solve
from .system import AdmissibleBounds, DirichletBC, ResidualSystem

ANDERSON = "anderson"
NEWTON = "newton"


@dataclass
class TimeConfig:
    """Discretization and solver choices for one run."""

    stab: stab.StabParams
    dt: float | None = None
    t_end: float | None = None
    steady: bool = False
    solver: str = NEWTON
    projection: bool = True
    tol: float = 1e-6
    k_max: int = 500
    m: int = 5
    s_min: float = -0.05
    omega0: float = 1.0
    omega_min: float = 0.3

    def __post_init__(self):
        if self.solver not in (ANDERSON, NEWTON):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.solver == NEWTON and not (
                self.stab.is_smooth or self.stab.detector == stab.GALERKIN):
            raise ValueError("the exact Jacobian needs a smooth detector variant")
        if not self.steady:
            if self.dt is None or self.dt <= 0:
                raise ValueError("transient runs need dt > 0")
            if self.t_end is None or not self.dt <= self.t_end < np.inf:
                raise ValueError("t_end must be at least dt, and finite")
            steps = self.t_end / self.dt   # run_transient takes round(steps)
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ValueError(f"t_end must be a whole number of steps of "
                                 f"dt, not {steps:g}")


@dataclass
class TransientResult:
    times: list
    u: np.ndarray
    reports: list
    max_series: list
    min_series: list
    bounds: AdmissibleBounds


def dirichlet_nodes(mesh, problem):
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    mask = mesh.is_boundary & np.asarray(problem.inflow_where(x, y), dtype=bool)
    return np.nonzero(mask)[0]


def dirichlet_bc(mesh, problem, t):
    nodes = dirichlet_nodes(mesh, problem)
    x, y = mesh.coords[nodes, 0], mesh.coords[nodes, 1]
    vals = np.asarray(problem.u_dirichlet(x, y, t), dtype=float)
    return DirichletBC(nodes=nodes, values=np.broadcast_to(vals, nodes.shape).copy())


def admissible_bounds(mesh, problem, steady):
    """Extrema of the data defining the global maximum principle."""
    bc = dirichlet_bc(mesh, problem, 0.0)
    vals = [bc.values] if bc.values.size else []
    if not steady and getattr(problem, "u0", None) is not None:
        x, y = mesh.coords[:, 0], mesh.coords[:, 1]
        vals.append(np.asarray(problem.u0(x, y), dtype=float))
    if not vals:
        raise ValueError("problem has neither initial nor inflow data")
    allv = np.concatenate(vals)
    return AdmissibleBounds(lower=float(np.min(allv)), upper=float(np.max(allv)))


def require_initial_data(problem):
    """ValueError unless the problem has the initial data of a transient
    run."""
    if getattr(problem, "u0", None) is None:
        raise ValueError("a transient run needs the problem's initial data")


def forcing_vector(mesh, problem):
    g = getattr(problem, "g", None)
    return np.zeros(mesh.n_nodes) if g is None else assemble_forcing(mesh, g)


def _solve(mesh, problem, cfg, t, g, bounds, u_old=None, u_guess=None):
    """A backward-Euler step to t from ``u_old``, or with ``u_old=None`` the
    steady solve.  The solver starts from ``u_guess`` (by default ``u_old``,
    or zero when steady) with the Dirichlet data at t imposed; the system
    takes ``u_old`` whatever the guess."""
    bc = dirichlet_bc(mesh, problem, t)
    steady = u_old is None
    sys = ResidualSystem(mesh, problem.velocity, cfg.stab, g=g, dirichlet=bc,
                         dt=None if steady else cfg.dt, u_old=u_old,
                         bounds=bounds)
    if u_guess is None:
        u_guess = np.zeros(mesh.n_nodes) if steady else u_old
    u_init = np.asarray(u_guess, dtype=float).copy()
    u_init[bc.nodes] = bc.values
    if cfg.solver == NEWTON:
        return newton_solve(sys, u_init, tol=cfg.tol, k_max=cfg.k_max,
                            project=cfg.projection)
    return anderson_solve(sys, u_init, m=cfg.m, s_min=cfg.s_min,
                          omega0=cfg.omega0, omega_min=cfg.omega_min,
                          tol=cfg.tol, k_max=cfg.k_max,
                          project=cfg.projection)


def step_backward_euler(mesh, problem, u_n, t_next, cfg, g=None, bounds=None,
                        u_guess=None):
    """Advance one implicit step from ``u_n``.  The solver starts from
    ``u_guess``, by default ``u_n``, with the new Dirichlet data imposed."""
    if g is None:
        g = forcing_vector(mesh, problem)
    if bounds is None:
        bounds = admissible_bounds(mesh, problem, steady=False)
    return _solve(mesh, problem, cfg, t_next, g, bounds, u_old=u_n,
                  u_guess=u_guess)


def run_transient(mesh, problem, cfg):
    """Backward-Euler march to t_end with per-step extremum audits.

    Step 1 starts the solver from u^0.  Every later step starts it from the
    linear extrapolation 2u^n - u^(n-1), clipped to the admissible bounds;
    the step itself is still from u^n.

    Raises RuntimeError at the first step whose solve does not converge.
    """
    if cfg.steady:
        raise ValueError("transient driver called with a steady config")
    require_initial_data(problem)
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    u = np.asarray(problem.u0(x, y), dtype=float).copy()
    bc0 = dirichlet_bc(mesh, problem, 0.0)
    u[bc0.nodes] = bc0.values
    bounds = admissible_bounds(mesh, problem, steady=False)
    g = forcing_vector(mesh, problem)

    result = TransientResult(times=[0.0], u=u, reports=[],
                             max_series=[float(np.max(u))],
                             min_series=[float(np.min(u))], bounds=bounds)

    n_steps = int(round(cfg.t_end / cfg.dt))
    u_prev = None
    for n in range(n_steps):
        t = (n + 1) * cfg.dt
        guess = None if u_prev is None else \
            np.clip(2.0 * u - u_prev, bounds.lower, bounds.upper)
        u_prev = u
        u, report = step_backward_euler(mesh, problem, u, t, cfg, g=g,
                                        bounds=bounds, u_guess=guess)
        if not report.converged:
            why = report.failure or f"no convergence in {report.iterations} iterations"
            raise RuntimeError(f"step {n + 1} (t={t:g}) failed: {why}")
        result.times.append(t)
        result.reports.append(report)
        result.max_series.append(float(np.max(u)))
        result.min_series.append(float(np.min(u)))
    result.u = u
    return result


def run_steady(mesh, problem, cfg):
    """Solve the steady stabilized problem with strong inflow data.

    The initial guess extends the inflow data by zero into the interior.
    """
    return _solve(mesh, problem, cfg, 0.0, forcing_vector(mesh, problem),
                  admissible_bounds(mesh, problem, steady=True))
