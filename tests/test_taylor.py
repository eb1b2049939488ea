"""The smoothness claim as a check: Taylor remainders of the exact Jacobian
and second differences of the residual.

For a unit random direction v that is zero on the Dirichlet nodes,

    r(h) = ||T(u + h v) - T(u) - h J(u) v||

is O(h^2) where J is T's derivative and T is smooth, and only O(h) where J
is wrong (the ``taylor_test`` of Farrell, Ham, Funke & Rognes, *Automated
derivation of the adjoint of high-level transient finite element
programs*, SISC 2013).  Roundoff puts a floor under r(h); each case fits the
slope of log r against log h over the two decades of h that start at the
smallest h whose r is a hundred times that floor, and prints the onset of the
h^2 regime: the largest h down from which every half-decade slope is in
[1.9, 2.1].  The finite-difference tests check J to 1e-6 relative on mild
parameters; this test also runs at the benchmark workloads' q, eps and
sigma, where the h^2 regime starts up to a thousand times lower.

The second difference (T(u + h v) - 2 T(u) + T(u - h v)) / h^2 tends to
T''(u)[v, v] as h falls where T is twice differentiable, which the abstract
claims of the smooth schemes, and grows like 1/h where T has a kink at u.
At random and converged states the kinks of the non-smooth scheme lie off
the segment u +- h v, so there this check sees T'' along v only.
"""

import numpy as np
import pytest

from dmpfem.bench import make_problem
from dmpfem.mesh import build_structured
from dmpfem.solvers import newton_solve
from dmpfem.system import DirichletBC, ResidualSystem
from dmpfem.timeloop import admissible_bounds, dirichlet_bc, forcing_vector
from meshes import delaunay_p1, jittered_p1
from test_system import SMOOTH_CASES, build_system, random_state
from workloads import WORKLOADS

HS = 10.0 ** (-np.arange(2, 28) / 2)     # 1e-1 down to 1e-13.5, half decades
FLOOR_H = 1e-11     # at and below this h, r(h) is roundoff
ABOVE_FLOOR = 100.0
SLOPE = (1.9, 2.1)
EPS = np.finfo(float).eps

MESHES = {"q1": lambda: build_structured(8, 8),
          "jittered_p1": lambda: jittered_p1(8, 4),
          "delaunay_p1": lambda: delaunay_p1(8, 5)}


def _workload_system(name, mesh):
    """The workload's problem and stabilization on ``mesh``: the steady
    system, or the first backward-Euler step from u^0."""
    wl = WORKLOADS[name]
    problem = make_problem(wl.problem)
    cfg = wl.make_config(problem)
    x, y = mesh.coords.T
    dt = None if cfg.steady else cfg.dt
    u_old = None if cfg.steady else np.asarray(problem.u0(x, y), dtype=float)
    return ResidualSystem(mesh, problem.velocity, cfg.stab,
                          g=forcing_vector(mesh, problem),
                          dirichlet=dirichlet_bc(mesh, problem, dt or 0.0),
                          dt=dt, u_old=u_old,
                          bounds=admissible_bounds(mesh, problem, cfg.steady))


def _case_system(mesh, case):
    """``build_system``'s system with the west inflow profile 4y(1 - y) in
    place of zero.  With zero data the steady solution is u = 0, along
    which T is homogeneous of degree one: its r(h) is roundoff until the
    limiter leaves its flat part, and then falls faster than h^2."""
    sys = build_system(mesh, case, seed=3)
    nodes = sys.dirichlet.nodes
    y = mesh.coords[nodes, 1]
    return ResidualSystem(mesh, sys.velocity, sys.params,
                          dirichlet=DirichletBC(nodes, 4.0 * y * (1.0 - y)),
                          dt=sys.dt, u_old=sys.u_old, bounds=sys.bounds)


SYSTEMS = {**{case["label"]: (lambda mesh, case=case: _case_system(mesh, case))
              for case in SMOOTH_CASES},
           **{name: (lambda mesh, name=name: _workload_system(name, mesh))
              for name in WORKLOADS}}


def _state(sys, state):
    """A random state within the admissible bounds, or the solution of the
    step (the steady solve) by unprojected Newton from the previous state
    (from zero)."""
    b, bc = sys.bounds, sys.dirichlet
    if state == "random":
        u = random_state(sys.mesh, 17, b.lower, b.upper)
    else:
        u = np.zeros(sys.n) if sys.steady else sys.u_old.copy()
    u[bc.nodes] = bc.values
    if state == "converged":
        u, report = newton_solve(sys, u, tol=1e-10, k_max=60)
        assert report.converged, report.failure
    return u


def _direction(sys, seed=5):
    v = np.random.default_rng(seed).standard_normal(sys.n)
    v[sys.dirichlet.nodes] = 0.0
    return v / np.linalg.norm(v)


def taylor_remainders(sys, u, v):
    """r(h) over ``HS``, and ||J(u) v||."""
    T = sys.residual(u)
    Jv = sys.jacobian(u) @ v
    r = np.array([np.linalg.norm(sys.residual(u + h * v) - T - h * Jv)
                  for h in HS])
    return r, np.linalg.norm(Jv)


def fitted_slope(r, jv):
    """(slope, onset): the least-squares slope of log r against log h over
    the two decades of h above the floor, and the onset of the h^2 regime;
    (None, None) when r(h) stays within a hundred times roundoff at every h.

    The floor is r(h) at h <= ``FLOOR_H``, plus roundoff that grows with h,
    which is all there is where T is homogeneous along v (at u = 0)."""
    floor = np.max(r[HS <= FLOOR_H]) + 64.0 * EPS * HS * jv
    above = np.flatnonzero(r >= ABOVE_FLOOR * floor)
    if above.size == 0:
        return None, None
    lo = above[-1]
    window = slice(max(lo - 4, 0), lo + 1)      # h_lo up to 100 h_lo
    slope = np.polyfit(np.log(HS[window]), np.log(r[window]), 1)[0]
    local = np.diff(np.log(r[:lo + 1])) / np.diff(np.log(HS[:lo + 1]))
    bad = np.flatnonzero((local < SLOPE[0]) | (local > SLOPE[1]))
    return slope, HS[bad[-1] + 1] if bad.size else HS[0]


@pytest.mark.parametrize("state", ["random", "converged"])
@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("label", list(SYSTEMS))
def test_taylor_remainder_is_second_order(label, mesh, state):
    sys = SYSTEMS[label](MESHES[mesh]())
    u = _state(sys, state)
    r, jv = taylor_remainders(sys, u, _direction(sys))
    slope, onset = fitted_slope(r, jv)
    p = sys.params
    print(f"TAYLOR {label} {mesh} {state}: q={p.q:g} eps={p.eps:.1e} "
          f"sigma={p.sigma:.1e}: " + (
              "r(h) is roundoff at every h" if slope is None else
              f"slope {slope:.3f}, h^2 from {onset:.1e}"))
    assert slope is None or SLOPE[0] <= slope <= SLOPE[1]


@pytest.mark.parametrize("state", ["random", "converged"])
@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("label", list(SYSTEMS))
def test_second_differences_converge(label, mesh, state):
    sys = SYSTEMS[label](MESHES[mesh]())
    u = _state(sys, state)
    v = _direction(sys)
    T = sys.residual(u)
    d2 = np.array([(sys.residual(u + h * v) - 2.0 * T
                    + sys.residual(u - h * v)) / (h * h) for h in HS[:12]])
    # relative change from each h to the next; 0 where d2 vanishes, as it
    # does where T is odd along v (at u = 0)
    size = np.linalg.norm(d2[1:], axis=1)
    change = np.divide(np.linalg.norm(np.diff(d2, axis=0), axis=1), size,
                       out=np.zeros_like(size), where=size > 0)
    print(f"D2 {label} {mesh} {state}: |d2| {np.linalg.norm(d2[-1]):.2e}, "
          "relative changes " + " ".join(f"{c:.0e}" for c in change))
    assert np.min(change) < 1e-3
