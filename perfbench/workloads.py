"""The canonical workloads: their inputs, one timed run, and the gates that
decide whether the run's output is correct.

A run goes the way ``dmpfem run`` goes: build the mesh and warm the lazy
per-mesh state (set-up), solve, then audit the field and write it (output).
The package is called through module attributes (``bench.error_norms``, not
a name imported from it) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dmpfem import assembly, bench, mesh as dmesh, stabilization as stab, timeloop
from dmpfem import io as dio

from jitter import jittered_p1

# Tolerance of the LED and admissible-bound gates on transient runs, as in
# acceptance criterion 4.
LED_TOL = 1e-10

# Domain error norms of the converged steady_newton field, recorded at the
# commit that introduced this benchmark.  Any two solutions that meet the
# solver tolerance (1e-6 relative update) agree far inside ERROR_RTOL; a
# larger drift means the discrete solution itself changed.
STEADY_L1 = 7.244970736041782e-03
STEADY_L2 = 4.465284133462874e-02
ERROR_RTOL = 1e-3

# Jitter seed of the burgers_p1_anderson mesh (411 Anderson iterations).
# The mesh is fixed rather than drawn from the run's seed: Anderson's
# iteration count is not a smooth function of the jitter (282 to 757
# iterations over jitter seeds 0-9, and no convergence within k_max at
# step 1 for seed 7), so a seeded mesh would make solve_s vary 2.7x between
# runs for reasons unrelated to the code being measured.
BURGERS_MESH_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    make_mesh: Callable       # () -> Mesh2D
    make_config: Callable     # problem -> TimeConfig
    gates: Callable           # Outcome -> {gate name: passed}


@dataclass
class Outcome:
    """What one run produced, timings included."""

    solver: str = ""
    setup_s: float = 0.0
    solve_s: float = 0.0
    output_s: float = 0.0
    reports: list = field(default_factory=list)
    u: np.ndarray | None = None
    max_series: list | None = None
    min_series: list | None = None
    bounds: object = None
    dmp: tuple | None = None
    errors: dict = field(default_factory=dict)
    error: str | None = None
    gates: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return self.setup_s + self.solve_s + self.output_s

    @property
    def correct(self):
        return self.error is None and all(self.gates.values())

    @property
    def iterations(self):
        return [r.iterations for r in self.reports]


# ----------------------------------------------------------------------
# meshes and configurations
# ----------------------------------------------------------------------

def _q1_96():
    return dmesh.build_structured(96, 96)


def _jittered_p1_50():
    coords, elements = jittered_p1(50, BURGERS_MESH_SEED)
    return dmesh.Mesh2D(coords, elements, dmesh.P1)


def _steady_newton_config(problem):
    beta, eps = problem.velocity.beta_bound, 1e-4
    params = stab.StabParams(q=25.0, eps=eps, sigma=beta * eps * eps * 1e-5,
                             gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    return timeloop.TimeConfig(stab=params, steady=True, solver=timeloop.NEWTON,
                               projection=True, tol=1e-6)


def _rotation_newton_config(problem):
    beta = problem.velocity.beta_bound
    params = stab.StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                             detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                             beta_bound=beta)
    return timeloop.TimeConfig(stab=params, dt=1e-3, t_end=1e-2,
                               solver=timeloop.NEWTON, projection=True, tol=1e-8)


def _burgers_anderson_config(problem):
    beta = problem.velocity.beta_bound
    params = stab.StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                             detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                             beta_bound=beta)
    return timeloop.TimeConfig(stab=params, dt=1e-2, t_end=0.2,
                               solver=timeloop.ANDERSON, projection=True,
                               tol=1e-5, k_max=300)


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------

def _converged(out):
    return bool(out.reports) and all(r.converged for r in out.reports)


def _led(out):
    return bool(np.all(np.diff(out.max_series) <= LED_TOL)
                and np.all(np.diff(out.min_series) >= -LED_TOL))


def _steady_gates(out):
    l1, l2 = out.errors["L1"], out.errors["L2"]
    return {
        "converged": _converged(out),
        "global_dmp": out.dmp == (0.0, 0.0),
        "L1_error": abs(l1 - STEADY_L1) <= ERROR_RTOL * STEADY_L1,
        "L2_error": abs(l2 - STEADY_L2) <= ERROR_RTOL * STEADY_L2,
    }


def _rotation_gates(out):
    lo, hi = out.bounds.lower, out.bounds.upper
    return {
        "converged": _converged(out),
        "led": _led(out),
        "admissible": bool(np.min(out.u) >= lo - LED_TOL
                           and np.max(out.u) <= hi + LED_TOL),
    }


def _burgers_gates(out):
    return {
        "converged": _converged(out),
        "range": bool(np.min(out.u) >= -1.0 and np.max(out.u) <= 0.8),
        "led": _led(out),
    }


WORKLOADS = {w.name: w for w in (
    Workload("steady_newton", bench.STRAIGHT_DISCONTINUITY, _q1_96,
             _steady_newton_config, _steady_gates),
    Workload("rotation_newton", bench.THREE_BODY_ROTATION, _q1_96,
             _rotation_newton_config, _rotation_gates),
    Workload("burgers_p1_anderson", bench.BURGERS2D, _jittered_p1_50,
             _burgers_anderson_config, _burgers_gates),
)}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _no_span(name):
    return contextlib.nullcontext()


def set_up(wl, problem):
    """Mesh, config, adjacency pattern and detector stencil: everything the
    first solve would otherwise build lazily."""
    mesh = wl.make_mesh()
    cfg = wl.make_config(problem)
    assembly.pattern(mesh)
    stab.detector_values(mesh, np.zeros(mesh.n_nodes), cfg.stab)
    return mesh, cfg


def run_once(wl, outdir, span=_no_span):
    """Set up, solve, audit and write one workload run; gates included.

    ``span(name)`` wraps each phase (a tracer's span, or nothing).  A solver
    error is recorded as the outcome's error, not raised.
    """
    out = Outcome()
    problem = bench.make_problem(wl.problem)
    t0 = time.perf_counter()
    with span("setup"):
        mesh, cfg = set_up(wl, problem)
    t1 = time.perf_counter()
    out.setup_s = t1 - t0
    out.solver = cfg.solver
    t_final = None
    try:
        with span("solve"):
            if cfg.steady:
                out.u, report = timeloop.run_steady(mesh, problem, cfg)
                out.reports = [report]
            else:
                result = timeloop.run_transient(mesh, problem, cfg)
                out.u, out.reports = result.u, result.reports
                out.max_series, out.min_series = result.max_series, result.min_series
                t_final = result.times[-1]
    except RuntimeError as exc:
        out.solve_s = time.perf_counter() - t1
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    t2 = time.perf_counter()
    out.solve_s = t2 - t1

    with span("audit"):
        out.bounds = timeloop.admissible_bounds(mesh, problem, steady=cfg.steady)
        out.dmp = bench.dmp_audit(out.u, out.bounds)
        if problem.exact is not None:
            out.errors["L1"], out.errors["L2"] = bench.error_norms(
                mesh, out.u, problem.exact, region=bench.OMEGA)
            out.errors["L1_out"], out.errors["L2_out"] = bench.error_norms(
                mesh, out.u, problem.exact, region=bench.OUTFLOW,
                inflow_where=problem.inflow_where)
    with span("output"):
        dio.write_field(mesh, out.u, os.path.join(outdir, "field.vtk"), t_final)
        dio.write_log(out.reports[-1], os.path.join(outdir, "log.csv"))
    out.output_s = time.perf_counter() - t2
    out.gates = wl.gates(out)
    return out
