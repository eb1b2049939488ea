"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL
line with the measured numbers.

Reference values and tolerances are pinned here; heavier runs are shared via
module-scoped fixtures.  The optional full-scale smoke run is enabled with
DMPFEM_FULL_SCALE=1.
"""

import os

import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import assemble_convection, assemble_mass, pattern
from dmpfem.bench import (OMEGA, OUTFLOW, dmp_audit, eoc, error_norms,
                          local_dmp_audit, make_problem)
from dmpfem.mesh import build_structured
from dmpfem.stabilization import (StabParams, assemble_nonlinear_mass,
                                  detector_values, edge_viscosity, viscosity)
from dmpfem.system import ResidualSystem
from dmpfem.timeloop import (TimeConfig, admissible_bounds, run_steady,
                             run_transient)
from test_mesh import hex_fan, neighbors
from test_system import SMOOTH_CASES, build_system, fd_jacobian, random_state


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def steady_config(params, solver="newton", projection=True, tol=1e-6,
                  k_max=500):
    return TimeConfig(stab=params, steady=True, solver=solver,
                      projection=projection, tol=tol, k_max=k_max)


def sharp_params(problem, q, eps, detector=stab.SMOOTH, gamma=1e-10):
    """Parameters of the discontinuity sweeps; the regularized-maximum
    parameter |beta| eps^2 1e-5 keeps Newton robust without adding visible
    diffusion at these scales."""
    beta = problem.velocity.beta_bound
    return StabParams(q=q, eps=eps, sigma=beta * eps * eps * 1e-5, gamma=gamma,
                      detector=detector, beta_bound=beta)


# ----------------------------------------------------------------------
# shared heavy runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def straight_q25(request):
    """Straight-discontinuity 48x48, q=25, eps=1e-4: smooth Newton run."""
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(48, 48)
    params = sharp_params(prob, 25.0, 1e-4)
    u, rep = run_steady(mesh, prob, steady_config(params))
    assert rep.converged
    return mesh, prob, u, rep


def test_criterion_1_smooth_convergence():
    """Stabilized convergence on the smooth steady profile."""
    prob = make_problem("STEADY_PARABOLIC")
    beta = prob.velocity.beta_bound
    sizes = (12, 24, 48, 96)
    hs, gal_errs, stab_errs = [], [], []
    for n in sizes:
        h = 1.0 / n
        mesh = build_structured(n, n)
        p_gal = StabParams(q=4.0, detector=stab.GALERKIN, beta_bound=beta)
        u_gal, rep = run_steady(mesh, prob, steady_config(p_gal, projection=False))
        assert rep.converged
        _, l2_gal = error_norms(mesh, u_gal, prob.exact)

        delta = beta * h ** 4 * 1e-8
        p_stab = StabParams(q=4.0, eps=1e-7, sigma=delta * delta, gamma=1e-10,
                            detector=stab.SMOOTH, beta_bound=beta)
        u_stab, rep = run_steady(mesh, prob, steady_config(p_stab, projection=False))
        assert rep.converged
        _, l2_stab = error_norms(mesh, u_stab, prob.exact)
        hs.append(h)
        gal_errs.append(l2_gal)
        stab_errs.append(l2_stab)

    orders = eoc(stab_errs, hs)
    last = orders[-1]
    dominated = all(s >= g for s, g in zip(stab_errs, gal_errs))
    detail = (f"stabilized L2 {['%.3e' % e for e in stab_errs]}, "
              f"EOC per refinement {['%.3f' % o for o in orders[1:]]}, "
              f"last {last:.3f} (window [1.8, 2.2]); "
              f"stabilized >= Galerkin at each h: {dominated}")
    ok = report(1, 1.8 <= last <= 2.2 and dominated, detail)
    assert dominated
    assert 1.8 <= last <= 2.2, detail


def test_criterion_2_table_spot_rows(straight_q25):
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(48, 48)

    p1 = sharp_params(prob, 1.0, 1e-1)
    u1, rep1 = run_steady(mesh, prob, steady_config(p1))
    assert rep1.converged
    l1_a, l2_a = error_norms(mesh, u1, prob.exact)

    _, _, u25, rep25 = straight_q25
    l1_b, _ = error_norms(mesh, u25, prob.exact)

    checks = {
        "L1(q=1) in 2.77e-2 +-10%": abs(l1_a - 2.77e-2) <= 0.10 * 2.77e-2,
        "L2(q=1) in 8.65e-2 +-10%": abs(l2_a - 8.65e-2) <= 0.10 * 8.65e-2,
        "L1(q=25) in 1.25e-2 +-15%": abs(l1_b - 1.25e-2) <= 0.15 * 1.25e-2,
        "N(q=1) within 2x of 9": 4.5 <= rep1.iterations <= 18,
        "N(q=25) within 2x of 17": 8.5 <= rep25.iterations <= 34,
    }
    detail = (f"q=1: L1 {l1_a:.3e} L2 {l2_a:.3e} N {rep1.iterations}; "
              f"q=25: L1 {l1_b:.3e} N {rep25.iterations}")
    report(2, all(checks.values()), detail)
    for name, ok in checks.items():
        assert ok, f"{name}: {detail}"


def test_criterion_3_circular_spot_row():
    prob = make_problem("CIRCULAR_CONVECTION")
    mesh = build_structured(64, 128, domain=prob.domain)
    params = sharp_params(prob, 1.0, 1e-1)
    u, rep = run_steady(mesh, prob, steady_config(params))
    assert rep.converged
    l1, _ = error_norms(mesh, u, prob.exact)
    ok_l1 = abs(l1 - 1.42e-1) <= 0.10 * 1.42e-1
    ok_n = rep.iterations <= 18
    detail = f"L1 {l1:.3e} (target 1.42e-1 +-10%), Newton iters {rep.iterations} (<= 18)"
    report(3, ok_l1 and ok_n, detail)
    assert ok_l1 and ok_n, detail


def test_criterion_4_monotone_structure():
    tol = 1e-10
    failures = []

    # converged steady solutions with zero forcing: no interior local extrema
    for name, q, eps in (("STRAIGHT_DISCONTINUITY", 1.0, 1e-1),
                         ("STRAIGHT_DISCONTINUITY", 25.0, 1e-4)):
        prob = make_problem(name)
        mesh = build_structured(24, 24)
        params = sharp_params(prob, q, eps)
        u, rep = run_steady(mesh, prob,
                            steady_config(params, projection=False, tol=1e-12))
        bad = local_dmp_audit(mesh, u, tol=tol)
        if not rep.converged:
            failures.append(f"steady {name} q={q}: not converged")
        elif bad:
            failures.append(f"steady {name} q={q}: {len(bad)} local violations")

    # rotating bodies, gradually lumped mass, Newton
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(30, 30)
    beta = prob.velocity.beta_bound
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=beta)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=0.05, solver="newton",
                     projection=True, tol=1e-12)
    res = run_transient(mesh, prob, cfg)
    mx, mn = np.array(res.max_series), np.array(res.min_series)
    if not all(r.converged for r in res.reports):
        failures.append("3-body LED run: steps not converged")
    if np.max(np.diff(mx)) > tol or np.min(np.diff(mn)) < -tol:
        failures.append("3-body LED run: extrema not monotone")
    if np.max(mx) > res.bounds.upper + tol or np.min(mn) < res.bounds.lower - tol:
        failures.append("3-body LED run: outside admissible bounds")
    led_detail = (f"3-body max drift {np.max(np.diff(mx)):.1e}, "
                  f"min drift {-np.min(np.diff(mn)):.1e}")

    # rotating bodies, constant mass with mass-compensated viscosity
    params2 = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                         detector=stab.SMOOTH, mass=stab.SYMMETRIC_MASS,
                         beta_bound=beta)
    cfg2 = TimeConfig(stab=params2, dt=1e-3, t_end=0.05, solver="anderson",
                      projection=True, tol=1e-8, k_max=300)
    res2 = run_transient(mesh, prob, cfg2)
    mx2, mn2 = np.array(res2.max_series), np.array(res2.min_series)
    if not all(r.converged for r in res2.reports):
        failures.append("3-body global-DMP run: steps not converged")
    if np.max(np.diff(mx2)) > tol or np.min(np.diff(mn2)) < -tol:
        failures.append("3-body global-DMP run: extrema not monotone")

    # four-quadrant Burgers data, Anderson with projected iterates
    prob_b = make_problem("BURGERS2D")
    mesh_b = build_structured(50, 50)
    params_b = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                          detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                          beta_bound=prob_b.velocity.beta_bound)
    cfg_b = TimeConfig(stab=params_b, dt=1e-2, t_end=0.2, solver="anderson",
                       projection=True, tol=1e-5, k_max=300)
    res_b = run_transient(mesh_b, prob_b, cfg_b)
    mxb, mnb = np.array(res_b.max_series), np.array(res_b.min_series)
    if not all(r.converged for r in res_b.reports):
        failures.append("Burgers run: steps not converged")
    if np.max(np.diff(mxb)) > tol or np.min(np.diff(mnb)) < -tol:
        failures.append("Burgers run: extrema not monotone")
    if np.max(mxb) > 0.8 + tol or np.min(mnb) < -1.0 - tol:
        failures.append("Burgers run: outside [-1, 0.8]")

    detail = led_detail + (f"; Burgers max drift {np.max(np.diff(mxb)):.1e}"
                           f"; failures: {failures or 'none'}")
    report(4, not failures, detail)
    assert not failures, detail


def test_criterion_5_projected_iterates(straight_q25):
    _, _, _, rep_proj = straight_q25
    max_viol_proj = max(max(v) for v in rep_proj.dmp_violation_history)

    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(48, 48)
    params = sharp_params(prob, 25.0, 1e-4)
    _, rep_free = run_steady(mesh, prob, steady_config(params, projection=False))
    max_viol_free = max(max(v) for v in rep_free.dmp_violation_history)

    ok = max_viol_proj == 0.0 and max_viol_free > 1e-8
    detail = (f"projected max violation {max_viol_proj:.1e} (exactly 0), "
              f"unprojected max violation {max_viol_free:.3e} (> 0 early)")
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_jacobian_correctness():
    worst = 0.0
    for case in SMOOTH_CASES:
        for n in (4, 8):
            mesh = build_structured(n, n)
            sys = build_system(mesh, case, seed=n)
            u = random_state(mesh, seed=13 * n)
            J = sys.jacobian(u).toarray()
            J_fd = fd_jacobian(sys, u)
            err = np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd))
            worst = max(worst, err)
    detail = f"max relative entry error over cases {worst:.2e} (< 1e-6)"
    report(6, worst < 1e-6, detail)
    assert worst < 1e-6, detail


def test_criterion_7_detector_algebra():
    mesh = build_structured(6, 6)
    rng = np.random.default_rng(77)
    all_kinds = (stab.NONSMOOTH, stab.SIMPLIFIED, stab.SMOOTH,
                 stab.SIMPLIFIED_SMOOTH)
    params = {k: StabParams(q=3.0,
                            eps=0.0 if k in (stab.NONSMOOTH, stab.SIMPLIFIED) else 1e-4,
                            sigma=0.0,
                            gamma=0.0 if k in (stab.NONSMOOTH, stab.SIMPLIFIED) else 1e-10,
                            detector=k, beta_bound=1.0)
              for k in all_kinds}

    # extrema flagged exactly
    extremum_exact = True
    for _ in range(100):
        u = rng.standard_normal(mesh.n_nodes)
        i = rng.choice(mesh.interior_nodes)
        sign = rng.choice([-1.0, 1.0])
        u[i] = sign * (np.max(sign * u[neighbors(mesh, i)]) + rng.uniform(0.1, 1))
        for k in all_kinds:
            if abs(detector_values(mesh, u, params[k])[i] - 1.0) > 1e-14:
                extremum_exact = False

    # affine fields: zero response, Galerkin recovered
    grid = build_structured(8, 8)
    u_aff = grid.coords[:, 0] - 0.5 * grid.coords[:, 1]
    p_ns = params[stab.NONSMOOTH]
    alphas = detector_values(grid, u_aff, p_ns)
    from test_assembly import constant_velocity
    F = assemble_convection(grid, constant_velocity(1.0, 0.0), u_aff)
    B = viscosity(grid, F, alphas, p_ns)
    M = assemble_mass(grid)
    Mb = assemble_nonlinear_mass(grid, M, M @ np.ones(grid.n_nodes), alphas)
    fscale = np.max(np.abs(F.data))
    affine_ok = (np.max(alphas) <= 1e-13
                 and np.max(np.abs(B.data)) <= 1e-13 * fscale
                 and np.max(np.abs(Mb.data - M.data)) <= 1e-13 * np.max(M.data))

    # gradient and edge detectors coincide on the equilateral patch
    fan = hex_fan(radius=0.35)
    equivalence_ok = True
    for _ in range(100):
        u = rng.standard_normal(7)
        a = detector_values(fan, u, p_ns)[0]
        b = detector_values(fan, u, params[stab.SIMPLIFIED])[0]
        if abs(a - b) > 1e-12:
            equivalence_ok = False

    # smooth viscosity dominates the non-smooth one entrywise
    p_s = StabParams(q=3.0, eps=1e-4, sigma=1e-9, gamma=1e-10,
                     detector=stab.SMOOTH, beta_bound=1.0)
    F6 = assemble_convection(mesh, constant_velocity(0.6, -0.7),
                             np.zeros(mesh.n_nodes))
    dominance_ok = True
    for _ in range(1000):
        u = rng.standard_normal(mesh.n_nodes)
        nu_ns = edge_viscosity(pattern(mesh), F6,
                               detector_values(mesh, u, p_ns), p_ns)
        nu_s = edge_viscosity(pattern(mesh), F6,
                              detector_values(mesh, u, p_s), p_s)
        if np.min(nu_s - nu_ns) < -1e-15:
            dominance_ok = False

    ok = extremum_exact and affine_ok and equivalence_ok and dominance_ok
    detail = (f"extremum exact: {extremum_exact}, affine zero: {affine_ok}, "
              f"patch equivalence: {equivalence_ok}, dominance: {dominance_ok}")
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_solver_efficiency(straight_q25):
    _, _, _, rep_newton = straight_q25
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(48, 48)
    p_ns = StabParams(q=25.0, eps=0.0, sigma=0.0, gamma=0.0,
                      detector=stab.NONSMOOTH, beta_bound=prob.velocity.beta_bound)
    _, rep_anderson = run_steady(mesh, prob,
                                 steady_config(p_ns, solver="anderson"))
    n_newton, n_anderson = rep_newton.iterations, rep_anderson.iterations
    ok = n_newton <= n_anderson / 5
    detail = (f"smooth Newton {n_newton} vs non-smooth Anderson {n_anderson} "
              f"(converged={rep_anderson.converged}); ratio {n_anderson / n_newton:.1f}x "
              f"(need >= 5x)")
    report(8, ok, detail)
    assert ok, detail


def test_criterion_9_refinement_robustness():
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    beta = prob.velocity.beta_bound
    sigma = beta * (1e-2) ** 2 * 1e-5
    newton_its, anderson_its = [], []
    for n in (12, 24, 48, 96):
        mesh = build_structured(n, n)
        params = StabParams(q=4.0, eps=1e-2, sigma=sigma, gamma=1e-10,
                            detector=stab.SMOOTH, beta_bound=beta)
        _, rep_n = run_steady(mesh, prob, steady_config(params))
        _, rep_a = run_steady(mesh, prob,
                              steady_config(params, solver="anderson"))
        assert rep_n.converged and rep_a.converged, f"n={n} did not converge"
        newton_its.append(rep_n.iterations)
        anderson_its.append(rep_a.iterations)
    spread_ok = max(newton_its) <= 2 * min(newton_its)
    growth_ok = (all(a <= b for a, b in zip(anderson_its, anderson_its[1:]))
                 and anderson_its[-1] > anderson_its[0])
    detail = f"Newton {newton_its} (spread <= 2x), Anderson {anderson_its} (growing)"
    report(9, spread_ok and growth_ok, detail)
    assert spread_ok and growth_ok, detail


@pytest.mark.skipif(not os.environ.get("DMPFEM_FULL_SCALE"),
                    reason="full-scale smoke run only with DMPFEM_FULL_SCALE=1")
def test_criterion_10_full_scale_smoke():
    prob = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(150, 150)
    beta = prob.velocity.beta_bound
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=0.01, solver="newton",
                     projection=True, tol=1e-8)
    res = run_transient(mesh, prob, cfg)
    bounds = admissible_bounds(mesh, prob, steady=False)
    mx, mn = dmp_audit(res.u, bounds)
    detail = f"150x150 smoke: DMP violation ({mx:.1e}, {mn:.1e})"
    report(10, mx == 0.0 and mn == 0.0, detail)
    assert mx == 0.0 and mn == 0.0
