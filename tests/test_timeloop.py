import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import assemble_convection, assemble_mass
from dmpfem.bench import make_problem
from dmpfem.mesh import build_structured
from dmpfem.stabilization import StabParams
from dmpfem.system import solve_linear
from dmpfem.timeloop import (TimeConfig, admissible_bounds, dirichlet_bc,
                             dirichlet_nodes, run_steady, run_transient,
                             step_backward_euler)
from test_assembly import constant_velocity


class ConstantProblem:
    """Uniform transport of a constant state."""

    def __init__(self, c=0.7, vx=1.0, vy=0.0):
        self.c = c
        self.velocity = constant_velocity(vx, vy)

    def inflow_where(self, x, y):
        return np.isclose(x, 0.0) | np.isclose(y, 1.0)

    def u_dirichlet(self, x, y, t):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.c)

    def u0(self, x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.c)


class ZeroVelocityProblem(ConstantProblem):
    def __init__(self):
        self.c = 0.0
        self.velocity = constant_velocity(0.0, 0.0)

    def inflow_where(self, x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=bool)

    def u0(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.sin(2 * np.pi * x) ** 2


def smooth_params(beta=1.0, mass=stab.GRADUAL_LUMPING):
    return StabParams(q=4.0, eps=1e-4, sigma=1e-12, gamma=1e-10,
                      detector=stab.SMOOTH, mass=mass, beta_bound=beta)


def test_constant_state_is_exact_step():
    prob = ConstantProblem(c=0.7)
    mesh = build_structured(6, 6)
    cfg = TimeConfig(stab=smooth_params(), dt=0.05, t_end=0.05, solver="anderson",
                     projection=False, tol=1e-10)
    x = mesh.coords[:, 0]
    u0 = prob.u0(x, mesh.coords[:, 1])
    u1, rep = step_backward_euler(mesh, prob, u0, 0.05, cfg,
                                  bounds=admissible_bounds(mesh, prob, False))
    assert rep.converged
    assert np.max(np.abs(u1 - 0.7)) < 1e-12


def test_positivity_of_single_step():
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(12, 12)
    rng = np.random.default_rng(4)
    u0 = rng.uniform(0.0, 1.0, mesh.n_nodes)
    bc = dirichlet_bc(mesh, prob, 0.0)
    u0[bc.nodes] = 0.0
    cfg = TimeConfig(stab=smooth_params(beta=prob.velocity.beta_bound),
                     dt=1e-3, t_end=1e-3, solver="newton", projection=False,
                     tol=1e-10)
    u1, rep = step_backward_euler(mesh, prob, u0, 1e-3, cfg)
    assert rep.converged
    assert np.min(u1) >= -1e-11


def test_large_dt_step_approaches_steady_solution():
    prob = make_problem("STEADY_PARABOLIC")
    mesh = build_structured(8, 8)
    params = smooth_params(beta=1.0)
    steady_cfg = TimeConfig(stab=params, steady=True, solver="newton",
                            projection=False, tol=1e-10)
    u_steady, rep = run_steady(mesh, prob, steady_cfg)
    assert rep.converged

    trans_cfg = TimeConfig(stab=params, dt=1e7, t_end=1e7, solver="newton",
                           projection=False, tol=1e-10)
    u0 = np.zeros(mesh.n_nodes)
    bc = dirichlet_bc(mesh, prob, 0.0)
    u0[bc.nodes] = bc.values
    u1, rep = step_backward_euler(mesh, prob, u0, 1e7, trans_cfg)
    assert rep.converged
    assert np.max(np.abs(u1 - u_steady)) < 1e-4


def test_zero_velocity_trajectory_constant():
    # sigma must be zero here: its floor would add a tiny viscosity even
    # for vanishing transport
    prob = ZeroVelocityProblem()
    mesh = build_structured(5, 5)
    params = StabParams(q=4.0, eps=1e-4, sigma=0.0, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=1e-12)
    cfg = TimeConfig(stab=params, dt=0.1, t_end=0.5,
                     solver="anderson", projection=False, tol=1e-12)
    res = run_transient(mesh, prob, cfg)
    u0 = prob.u0(mesh.coords[:, 0], mesh.coords[:, 1])
    assert np.max(np.abs(res.u - u0)) < 1e-12


def test_transient_run_stops_at_unconverged_step():
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(6, 6)
    cfg = TimeConfig(stab=smooth_params(beta=prob.velocity.beta_bound),
                     dt=1e-3, t_end=2e-3, solver="newton", projection=True,
                     tol=1e-14, k_max=1)
    with pytest.raises(RuntimeError, match="step 1"):
        run_transient(mesh, prob, cfg)


def test_three_body_short_run_monotone_extrema():
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(30, 30)
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, beta_bound=prob.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=1e-2, solver="newton",
                     projection=True, tol=1e-10)
    res = run_transient(mesh, prob, cfg)
    assert all(r.converged for r in res.reports)
    mx, mn = np.array(res.max_series), np.array(res.min_series)
    assert np.all(np.diff(mx) <= 1e-10)
    assert np.all(np.diff(mn) >= -1e-10)


def test_burgers_short_run_within_bounds():
    prob = make_problem("BURGERS2D")
    mesh = build_structured(16, 16)
    params = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, beta_bound=prob.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-2, t_end=0.1, solver="anderson",
                     projection=True, tol=1e-6, k_max=300)
    res = run_transient(mesh, prob, cfg)
    assert max(res.max_series) <= -(-0.8) + 1e-12
    assert min(res.min_series) >= -1.0 - 1e-12


def test_galerkin_fallback_reproduces_plain_be_step():
    prob = ConstantProblem(c=0.0)
    mesh = build_structured(6, 6)
    rng = np.random.default_rng(9)
    u0 = rng.standard_normal(mesh.n_nodes)
    bc = dirichlet_bc(mesh, prob, 0.0)
    u0[bc.nodes] = 0.0
    dt = 0.02
    cfg = TimeConfig(stab=StabParams(q=1.0, detector=stab.GALERKIN, beta_bound=1.0),
                     dt=dt, t_end=dt, solver="newton", projection=False, tol=1e-13)
    u1, rep = step_backward_euler(mesh, prob, u0, dt, cfg)

    M = assemble_mass(mesh).to_csr()
    F = assemble_convection(mesh, prob.velocity, u0).to_csr()
    import scipy.sparse as sp
    A = (M / dt + F).tolil()
    b = M @ u0 / dt
    for i in dirichlet_nodes(mesh, prob):
        A.rows[i], A.data[i] = [int(i)], [1.0]
        b[i] = 0.0
    expected, _ = solve_linear(A.tocsr(), b)
    assert np.max(np.abs(u1 - expected)) < 1e-11


def test_steady_constant_inflow_gives_constant():
    prob = ConstantProblem(c=0.25)
    mesh = build_structured(7, 7)
    cfg = TimeConfig(stab=smooth_params(), steady=True, solver="anderson",
                     projection=False, tol=1e-12)
    u, rep = run_steady(mesh, prob, cfg)
    assert rep.converged
    assert np.max(np.abs(u - 0.25)) < 1e-11


def test_steady_local_dmp_zero_forcing():
    from dmpfem.bench import local_dmp_audit
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(16, 16)
    beta = prob.velocity.beta_bound
    params = StabParams(q=1.0, eps=1e-1, sigma=beta * 1e-2 * 1e-5, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver="newton",
                     projection=True, tol=1e-12)
    u, rep = run_steady(mesh, prob, cfg)
    assert rep.converged
    assert local_dmp_audit(mesh, u, tol=1e-10) == []


def test_config_validation():
    p = smooth_params()
    with pytest.raises(ValueError):
        TimeConfig(stab=p, solver="bogus", steady=True)
    with pytest.raises(ValueError):
        TimeConfig(stab=p, steady=False, dt=None, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(stab=p, steady=False, dt=0.1, t_end=0.05)


def test_solver_failure_propagates_with_step_index():
    class BadProblem(ConstantProblem):
        def u0(self, x, y):
            return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, np.nan)

    prob = BadProblem()
    mesh = build_structured(3, 3)
    cfg = TimeConfig(stab=smooth_params(), dt=0.1, t_end=0.2,
                     solver="anderson", projection=False, tol=1e-8)
    with pytest.raises(RuntimeError, match="step 1"):
        run_transient(mesh, prob, cfg)


def test_steady_parabolic_on_p1_mesh():
    from dmpfem.bench import error_norms
    from dmpfem.mesh import P1
    prob = make_problem("STEADY_PARABOLIC")
    mesh = build_structured(12, 12, kind=P1)
    beta = prob.velocity.beta_bound
    h = 1.0 / 12
    params = StabParams(q=4.0, eps=1e-7, sigma=(beta * h ** 4 * 1e-8) ** 2,
                        gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver="newton",
                     projection=False, tol=1e-8)
    u, rep = run_steady(mesh, prob, cfg)
    assert rep.converged
    _, l2 = error_norms(mesh, u, prob.exact)
    assert l2 < 5e-2

    # unstabilized triangles oscillate on pure advection; just check the
    # plain Galerkin path solves and stays in the same error ballpark
    p_gal = StabParams(q=4.0, detector=stab.GALERKIN,
                       beta_bound=prob.velocity.beta_bound)
    cfg_gal = TimeConfig(stab=p_gal, steady=True, solver="newton",
                         projection=False, tol=1e-8)
    u_gal, rep = run_steady(mesh, prob, cfg_gal)
    assert rep.converged
    _, l2_gal = error_norms(mesh, u_gal, prob.exact)
    assert l2_gal < 5e-2


def test_newton_superlinear_on_smooth_steady_system():
    import math
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(12, 12)
    beta = prob.velocity.beta_bound
    params = StabParams(q=4.0, eps=1e-2, sigma=beta * 1e-4 * 1e-5,
                        gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver="newton",
                     projection=False, tol=1e-12)
    u, rep = run_steady(mesh, prob, cfg)
    assert rep.converged
    h = rep.nlerr_history
    ratios = [h[k + 1] / h[k] for k in range(len(h) - 1)]
    # the last update ratios decay fast and the observed order over the
    # final iterations is well above linear
    assert ratios[-1] < ratios[-2] < ratios[-3]
    order = math.log(h[-1] / h[-2]) / math.log(h[-2] / h[-3])
    assert order >= 1.5
