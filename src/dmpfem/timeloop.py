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
    ls_tol: float = 1e-4

    def __post_init__(self):
        if self.solver not in (ANDERSON, NEWTON):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.steady:
            if self.dt is None or self.dt <= 0:
                raise ValueError("transient runs need dt > 0")
            if self.t_end is None or self.t_end < self.dt:
                raise ValueError("t_end must be at least dt")


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


def forcing_vector(mesh, problem):
    g = getattr(problem, "g", None)
    if g is None:
        return np.zeros(mesh.n_nodes)
    return assemble_forcing(mesh, g)


def _solve(sys, u_init, cfg):
    if cfg.solver == NEWTON:
        return newton_solve(sys, u_init, tol=cfg.tol, k_max=cfg.k_max,
                            project=cfg.projection, ls_tol=cfg.ls_tol)
    return anderson_solve(sys, u_init, m=cfg.m, s_min=cfg.s_min,
                          omega0=cfg.omega0, omega_min=cfg.omega_min,
                          tol=cfg.tol, k_max=cfg.k_max,
                          project=cfg.projection)


def step_backward_euler(mesh, problem, u_n, t_next, cfg, g=None, bounds=None):
    """Advance one implicit step; the initial guess is the previous state
    with the new Dirichlet data imposed."""
    bc = dirichlet_bc(mesh, problem, t_next)
    if g is None:
        g = forcing_vector(mesh, problem)
    if bounds is None:
        bounds = admissible_bounds(mesh, problem, steady=False)
    sys = ResidualSystem(mesh, problem.velocity, cfg.stab, g=g, dirichlet=bc,
                         dt=cfg.dt, u_old=u_n, bounds=bounds)
    u_init = np.asarray(u_n, dtype=float).copy()
    u_init[bc.nodes] = bc.values
    return _solve(sys, u_init, cfg)


def run_transient(mesh, problem, cfg):
    """Backward-Euler march to t_end with per-step extremum audits.

    Raises RuntimeError at the first step whose solve does not converge.
    """
    if cfg.steady:
        raise ValueError("transient driver called with a steady config")
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
    t = 0.0
    for n in range(n_steps):
        t = (n + 1) * cfg.dt
        u, report = step_backward_euler(mesh, problem, u, t, cfg,
                                        g=g, bounds=bounds)
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
    bc = dirichlet_bc(mesh, problem, 0.0)
    g = forcing_vector(mesh, problem)
    bounds = admissible_bounds(mesh, problem, steady=True)
    sys = ResidualSystem(mesh, problem.velocity, cfg.stab, g=g, dirichlet=bc,
                         dt=None, bounds=bounds)
    u_init = np.zeros(mesh.n_nodes)
    u_init[bc.nodes] = bc.values
    return _solve(sys, u_init, cfg)
