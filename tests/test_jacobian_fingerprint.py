"""Jacobian and solve-path fingerprints: sha256 digests of the exact
Jacobian J(u) (CSR ``data``, ``indices`` and ``indptr``), of the residual
T(u) and of one Picard sweep for four small systems, and of the final fields
of two small end-to-end solves.

Newton's iterates depend on every bit of J and T, so a refactor of the
viscosity, the detector derivative or the Jacobian assembly must leave them
bit-identical.  The J and T digests were taken before the residual and the
Jacobian shared one edge-viscosity kernel, from the inline re-derivation it
replaced; the Picard and end-to-end digests before A(u) was assembled on
pattern data.  The Picard sweep also depends on the sparsity structure that
SuperLU orders: a stored zero changes the column ordering and so the last
bits of the solution.  The digests pin the floating-point results of this
numpy/scipy build; a different libm may move the last bit of ``pow`` and
change them.
"""

import hashlib

import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.bench import make_problem
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.stabilization import StabParams
from dmpfem.system import ResidualSystem
from dmpfem.timeloop import (ANDERSON, NEWTON, TimeConfig, admissible_bounds,
                             dirichlet_bc, run_steady, run_transient)


def _system(problem_name, n, kind, dt, mass):
    problem = make_problem(problem_name)
    mesh = build_structured(n, n, domain=problem.domain, kind=kind)
    params = StabParams(q=3.0, eps=1e-2, sigma=1e-3, gamma=1e-6,
                        detector=stab.SMOOTH, mass=mass,
                        beta_bound=problem.velocity.beta_bound)
    rng = np.random.default_rng(n)
    u_old = None if dt is None else rng.uniform(-1.0, 1.0, mesh.n_nodes)
    sys = ResidualSystem(mesh, problem.velocity, params,
                         dirichlet=dirichlet_bc(mesh, problem, 0.0), dt=dt,
                         u_old=u_old,
                         bounds=admissible_bounds(mesh, problem, dt is None))
    return sys, rng.uniform(-1.0, 1.0, mesh.n_nodes)


CASES = {
    "steady_linear_q1": lambda: _system("STRAIGHT_DISCONTINUITY", 8, Q1, None,
                                        stab.GRADUAL_LUMPING),
    "transient_gradual_q1": lambda: _system("THREE_BODY_ROTATION", 8, Q1, 1e-2,
                                            stab.GRADUAL_LUMPING),
    "transient_symmetric_mass_q1": lambda: _system(
        "THREE_BODY_ROTATION", 8, Q1, 1e-2, stab.SYMMETRIC_MASS),
    "burgers_p1": lambda: _system("BURGERS2D", 8, P1, 2e-2,
                                  stab.GRADUAL_LUMPING),
}


def _digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def fingerprint(sys, u):
    J = sys.jacobian(u)
    return {"J.data": _digest(J.data), "J.indices": _digest(J.indices),
            "J.indptr": _digest(J.indptr), "T": _digest(sys.residual(u))}


EXPECTED = {'burgers_p1': {'J.data': '0e0835a7381df65c',
                           'J.indices': '7bc76883de4a1563',
                           'J.indptr': '2a667069890b38bb',
                           'T': 'e920a319f8bfb80c'},
            'steady_linear_q1': {'J.data': '0de1880d5769aa66',
                                 'J.indices': 'c70db806a90a8972',
                                 'J.indptr': '5bb14efb8e83732a',
                                 'T': '96ffab583aaee2f3'},
            'transient_gradual_q1': {'J.data': 'e513235f085a613c',
                                     'J.indices': '30450712ffa396fd',
                                     'J.indptr': 'd473fcdf3fd054e3',
                                     'T': '17b2668cde1df658'},
            'transient_symmetric_mass_q1': {'J.data': 'c75a2817ce1e01fe',
                                            'J.indices': '59a2e79c478bb675',
                                            'J.indptr': '8a954f05dc6c65a0',
                                            'T': '25077f42653399cf'}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_jacobian_and_residual_are_bit_identical(name):
    assert fingerprint(*CASES[name]()) == EXPECTED[name]


PICARD = {'burgers_p1': '418c6583dda608da',
          'steady_linear_q1': '986f62b41bfbe3fc',
          'transient_gradual_q1': '3fb43cf727c901ed',
          'transient_symmetric_mass_q1': '7fad4e9254bafd0e'}


@pytest.mark.parametrize("name", sorted(CASES))
def test_picard_sweep_is_bit_identical(name):
    sys, u = CASES[name]()
    assert _digest(sys.picard_solve(u)) == PICARD[name]


def test_steady_newton_solve_is_bit_identical():
    # the steady_newton benchmark's parameters on Q1 16^2, unprojected: with
    # projection this grid stalls at the outflow boundary for k_max steps
    problem = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(16, 16, domain=problem.domain, kind=Q1)
    beta, eps = problem.velocity.beta_bound, 1e-4
    params = StabParams(q=25.0, eps=eps, sigma=beta * eps * eps * 1e-5,
                        gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver=NEWTON,
                     projection=False, tol=1e-6)
    u, report = run_steady(mesh, problem, cfg)
    assert (report.converged, report.iterations) == (True, 14)
    assert _digest(u) == "ba556dfe7d70cc00"


def test_burgers_anderson_run_is_bit_identical():
    # the burgers_p1_anderson benchmark's parameters on structured P1 12^2,
    # three steps
    problem = make_problem("BURGERS2D")
    mesh = build_structured(12, 12, domain=problem.domain, kind=P1)
    params = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-2, t_end=3e-2, solver=ANDERSON,
                     projection=True, tol=1e-5, k_max=300)
    result = run_transient(mesh, problem, cfg)
    assert [r.iterations for r in result.reports] == [4, 4, 5]
    assert _digest(result.u) == "282a3952f0c98700"
