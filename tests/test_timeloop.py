from dataclasses import replace

import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem import timeloop
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


class RampInflowProblem(ConstantProblem):
    """Initial data x^8 on [0, 1] and inflow data that rises to 1: the
    extrapolation of the small values upstream falls below 0."""

    def u_dirichlet(self, x, y, t):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.full(shape, min(0.6 + 10.0 * t, 1.0))

    def u0(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(x ** 8, np.broadcast(x, np.asarray(y)).shape)


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


@pytest.mark.parametrize("solver", ["newton", "anderson"])
def test_first_step_starts_from_the_initial_state(solver):
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(12, 12)
    cfg = TimeConfig(stab=smooth_params(beta=prob.velocity.beta_bound),
                     dt=1e-3, t_end=1e-3, solver=solver, projection=False,
                     tol=1e-10)
    res = run_transient(mesh, prob, cfg)
    u0 = prob.u0(mesh.coords[:, 0], mesh.coords[:, 1])
    bc = dirichlet_bc(mesh, prob, 0.0)
    u0[bc.nodes] = bc.values
    u1, rep = step_backward_euler(mesh, prob, u0, cfg.dt, cfg)
    assert np.array_equal(res.u, u1)
    assert res.reports == [rep]


@pytest.mark.parametrize("solver", ["newton", "anderson"])
def test_later_steps_start_from_the_clipped_extrapolation(solver,
                                                          monkeypatch):
    solve = getattr(timeloop, f"{solver}_solve")
    calls = []

    def spy(sys, u0, **kwargs):
        u, report = solve(sys, u0, **kwargs)
        calls.append((sys, np.array(u0), u))
        return u, report

    monkeypatch.setattr(timeloop, f"{solver}_solve", spy)
    prob = RampInflowProblem()
    mesh = build_structured(8, 8)
    cfg = TimeConfig(stab=smooth_params(), dt=0.01, t_end=0.06,
                     solver=solver, projection=False, tol=1e-10)
    res = run_transient(mesh, prob, cfg)
    lower, upper = res.bounds.lower, res.bounds.upper
    assert (lower, upper) == (0.0, 1.0) and len(calls) == 6
    states = [calls[0][0].u_old] + [u for _, _, u in calls]   # u^0 .. u^6
    clipped = False
    for n in range(1, 6):
        sys, u_init, _ = calls[n]
        # the system steps from u^n; only the solver's start moved
        assert np.array_equal(sys.u_old, states[n])
        assert not np.array_equal(u_init, states[n])
        bc = dirichlet_bc(mesh, prob, (n + 1) * cfg.dt)
        assert np.array_equal(u_init[bc.nodes], bc.values)
        assert np.all((lower <= u_init) & (u_init <= upper))
        guess = 2.0 * states[n] - states[n - 1]
        free = np.setdiff1d(np.arange(mesh.n_nodes), bc.nodes)
        assert np.array_equal(u_init[free],
                              np.clip(guess, lower, upper)[free])
        clipped |= bool(np.any(guess[free] < lower) or
                        np.any(guess[free] > upper))
    assert clipped


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

    M = assemble_mass(mesh)
    F = assemble_convection(mesh, prob.velocity, u0)
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
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            TimeConfig(stab=p, steady=False, dt=0.1, t_end=t_end)


@pytest.mark.parametrize("steps", [1.5, 2.5])
def test_t_end_must_be_a_whole_number_of_steps(steps):
    # round(t_end / dt) steps would end at 2 dt for both: past t_end at
    # 1.5 dt, short of it at 2.5 dt (round half to even)
    with pytest.raises(ValueError, match="whole number of steps"):
        TimeConfig(stab=smooth_params(), dt=1e-3, t_end=steps * 1e-3)


@pytest.mark.parametrize("dt, t_end", [(1e-3, 1e-2), (1e-2, 0.2), (0.1, 0.3),
                                       (0.1, 0.7), (0.01, 0.06)])
def test_t_end_within_roundoff_of_whole_steps_is_accepted(dt, t_end):
    # the benchmark's 10 and 20 steps, and 0.3 / 0.1 = 2.9999999999999996
    # and 0.7 / 0.1 = 6.999999999999999 in floating point
    cfg = TimeConfig(stab=smooth_params(), dt=dt, t_end=t_end)
    assert cfg.t_end == t_end


@pytest.mark.parametrize("detector", [stab.NONSMOOTH, stab.SIMPLIFIED])
def test_newton_needs_a_detector_with_an_exact_jacobian(detector):
    p = StabParams(q=4.0, eps=0.0, gamma=0.0, detector=detector)
    with pytest.raises(ValueError, match="smooth detector variant"):
        TimeConfig(stab=p, steady=True, solver="newton")
    # Anderson takes no Jacobian
    assert TimeConfig(stab=p, steady=True, solver="anderson").stab is p
    for ok in (stab.SMOOTH, stab.GALERKIN):
        TimeConfig(stab=replace(p, detector=ok, eps=1e-4), steady=True,
                   solver="newton")


def test_transient_run_needs_initial_data():
    prob = make_problem("STEADY_PARABOLIC")
    cfg = TimeConfig(stab=smooth_params(), dt=0.1, t_end=0.2)
    with pytest.raises(ValueError, match="initial data"):
        run_transient(build_structured(3, 3), prob, cfg)


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
    assert l2 < 1e-2

    # the plain Galerkin path solves too; on this solution, constant along
    # the flow, it is nodally exact, so its error is the interpolant's
    p_gal = StabParams(q=4.0, detector=stab.GALERKIN,
                       beta_bound=prob.velocity.beta_bound)
    cfg_gal = TimeConfig(stab=p_gal, steady=True, solver="newton",
                         projection=False, tol=1e-8)
    u_gal, rep = run_steady(mesh, prob, cfg_gal)
    assert rep.converged
    _, l2_gal = error_norms(mesh, u_gal, prob.exact)
    assert l2_gal < 1e-2


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
