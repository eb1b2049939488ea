import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import VelocityModel, assemble_convection, assemble_mass
from dmpfem.mesh import build_structured
from dmpfem.stabilization import StabParams
from dmpfem.system import AdmissibleBounds, DirichletBC, ResidualSystem
from test_assembly import constant_velocity
from test_mesh import neighbors


def fd_jacobian(sys, u, h=None):
    n = len(u)
    if h is None:
        h = np.cbrt(np.finfo(float).eps)
    J = np.empty((n, n))
    for b in range(n):
        e = np.zeros(n)
        e[b] = h * max(1.0, abs(u[b]))
        J[:, b] = (sys.residual(u + e) - sys.residual(u - e)) / (2 * e[b])
    return J


def dirichlet_west(mesh, value=0.0):
    nodes = np.nonzero(mesh.is_boundary & np.isclose(mesh.coords[:, 0], 0.0))[0]
    return DirichletBC(nodes=nodes, values=np.full(nodes.shape, value))


def random_state(mesh, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, mesh.n_nodes)


SMOOTH_CASES = [
    dict(label="linear-steady-smooth", burgers=False, dt=None,
         detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING),
    dict(label="linear-transient-gradual", burgers=False, dt=0.01,
         detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING),
    dict(label="burgers-transient-gradual", burgers=True, dt=0.02,
         detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING),
    dict(label="burgers-transient-symmass", burgers=True, dt=0.02,
         detector=stab.SMOOTH, mass=stab.SYMMETRIC_MASS),
    dict(label="linear-transient-edge-detector", burgers=False, dt=0.01,
         detector=stab.SIMPLIFIED_SMOOTH, mass=stab.GRADUAL_LUMPING),
]


def build_system(mesh, case, seed):
    vel = VelocityModel.burgers() if case["burgers"] else \
        constant_velocity(0.8, -0.35)
    params = StabParams(q=3.0, eps=1e-2, sigma=1e-3, gamma=1e-6,
                        detector=case["detector"], mass=case["mass"],
                        beta_bound=vel.beta_bound)
    dt = case["dt"]
    u_old = random_state(mesh, seed + 100) if dt is not None else None
    return ResidualSystem(mesh, vel, params, dirichlet=dirichlet_west(mesh),
                          dt=dt, u_old=u_old,
                          bounds=AdmissibleBounds(-1.0, 1.0))


@pytest.mark.parametrize("case", SMOOTH_CASES, ids=lambda c: c["label"])
@pytest.mark.parametrize("n", [4, 8])
def test_jacobian_matches_finite_differences(case, n):
    mesh = build_structured(n, n)
    sys = build_system(mesh, case, seed=n)
    u = random_state(mesh, seed=7 * n)
    J = sys.jacobian(u).toarray()
    J_fd = fd_jacobian(sys, u)
    scale = np.max(np.abs(J_fd))
    assert np.max(np.abs(J - J_fd)) / scale < 1e-6


def test_jacobian_galerkin_is_mass_plus_convection():
    mesh = build_structured(4, 4)
    vel = constant_velocity(1.0, 0.0)
    params = StabParams(q=4.0, detector=stab.GALERKIN, beta_bound=1.0)
    dt = 0.05
    sys = ResidualSystem(mesh, vel, params, dirichlet=dirichlet_west(mesh),
                         dt=dt, u_old=np.zeros(mesh.n_nodes))
    J = sys.jacobian(random_state(mesh, 3)).toarray()
    M = assemble_mass(mesh).to_csr().toarray()
    F = assemble_convection(mesh, vel, np.zeros(mesh.n_nodes)).to_csr().toarray()
    expected = M / dt + F
    free = ~np.isin(np.arange(mesh.n_nodes), sys.dirichlet.nodes)
    assert np.max(np.abs(J[free] - expected[free])) < 1e-14
    for i in sys.dirichlet.nodes:
        row = J[i]
        assert row[i] == 1.0
        assert np.max(np.abs(np.delete(row, i))) == 0.0


def test_jacobian_rejects_nonsmooth_detector():
    mesh = build_structured(3, 3)
    params = StabParams(q=2.0, eps=0.0, sigma=0.0, gamma=0.0,
                        detector=stab.NONSMOOTH, beta_bound=1.0)
    sys = ResidualSystem(mesh, constant_velocity(1.0, 0.0), params,
                         dirichlet=dirichlet_west(mesh))
    with pytest.raises(ValueError):
        sys.jacobian(np.zeros(mesh.n_nodes))


def test_frozen_mass_alpha_drops_only_that_term():
    mesh = build_structured(4, 4)
    case = SMOOTH_CASES[1]
    sys_exact = build_system(mesh, case, seed=1)
    sys_frozen = ResidualSystem(mesh, sys_exact.velocity, sys_exact.params,
                                dirichlet=sys_exact.dirichlet, dt=sys_exact.dt,
                                u_old=sys_exact.u_old, bounds=sys_exact.bounds,
                                freeze_mass_alpha=True)
    u = random_state(mesh, 5)
    # residuals agree; only the Jacobian differs by the mass-detector coupling
    assert np.allclose(sys_exact.residual(u), sys_frozen.residual(u))
    J1 = sys_exact.jacobian(u).toarray()
    J2 = sys_frozen.jacobian(u).toarray()
    assert np.max(np.abs(J1 - J2)) > 0


def test_residual_zero_at_fixed_point():
    mesh = build_structured(6, 6)
    vel = constant_velocity(1.0, 0.0)
    params = StabParams(q=4.0, eps=1e-4, sigma=1e-10, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=1.0)
    bc = dirichlet_west(mesh, value=0.5)
    sys = ResidualSystem(mesh, vel, params, dirichlet=bc,
                         bounds=AdmissibleBounds(0.0, 1.0))
    u = sys.picard_solve(np.full(mesh.n_nodes, 0.5))
    # constant inflow data propagates the constant exactly
    assert np.allclose(u, 0.5, atol=1e-12)
    assert np.max(np.abs(sys.residual(u))) < 1e-12


def test_dirichlet_rows_in_residual():
    mesh = build_structured(3, 3)
    bc = dirichlet_west(mesh, value=2.0)
    params = StabParams(q=1.0, detector=stab.GALERKIN, beta_bound=1.0)
    sys = ResidualSystem(mesh, constant_velocity(1.0, 0.0), params, dirichlet=bc)
    u = np.zeros(mesh.n_nodes)
    T = sys.residual(u)
    assert np.allclose(T[bc.nodes], -2.0)


@pytest.mark.parametrize("detector", [stab.SMOOTH, stab.GALERKIN])
def test_solve_path_leaves_pattern_arrays_intact(detector):
    # A(u) is a CSR view of pattern data that shares the pattern's index
    # arrays; no step of the solve path may change them in place
    mesh = build_structured(5, 5)
    sys = build_system(mesh, dict(SMOOTH_CASES[1], detector=detector), seed=3)
    pat = sys.pattern
    names = ("indptr", "indices", "edge_pos", "diag_pos", "csr_indptr",
             "csr_indices")
    before = {name: getattr(pat, name).copy() for name in names}
    u = random_state(mesh, 4)
    A, _ = sys.assemble_operator(u)
    sys.residual(u)
    sys.picard_solve(u)
    sys.jacobian(u)
    for name in names:
        assert np.array_equal(getattr(pat, name), before[name]), name
    assert np.shares_memory(A.indices, pat.csr_indices)
    with pytest.raises(ValueError):
        A.eliminate_zeros()


def test_transient_requires_previous_state():
    mesh = build_structured(2, 2)
    params = StabParams(q=1.0, detector=stab.GALERKIN, beta_bound=1.0)
    with pytest.raises(ValueError):
        ResidualSystem(mesh, constant_velocity(1.0, 0.0), params, dt=0.1)
    with pytest.raises(ValueError):
        ResidualSystem(mesh, constant_velocity(1.0, 0.0), params, dt=-0.1,
                       u_old=np.zeros(4))


def test_jacobian_pattern_within_distance_two():
    mesh = build_structured(5, 5)
    case = SMOOTH_CASES[0]
    sys = build_system(mesh, case, seed=2)
    J = sys.jacobian(random_state(mesh, 11))
    J = J.tolil()
    for i in range(mesh.n_nodes):
        dist2 = set()
        for j in neighbors(mesh, i):
            dist2.update(neighbors(mesh, j))
        for j in J.rows[i]:
            assert j in dist2 or j == i


def test_converged_relative_residual_consistency():
    # update-based stopping still leaves a small true residual
    from dmpfem.bench import make_problem
    from dmpfem.timeloop import (TimeConfig, dirichlet_bc, forcing_vector,
                                 admissible_bounds, run_steady)
    prob = make_problem("STEADY_PARABOLIC")
    mesh = build_structured(12, 12)
    tol = 1e-8
    params = StabParams(q=4.0, eps=1e-7, sigma=1e-16, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=1.0)
    for solver in ("newton", "anderson"):
        cfg = TimeConfig(stab=params, steady=True, solver=solver,
                         projection=False, tol=tol)
        u, rep = run_steady(mesh, prob, cfg)
        assert rep.converged
        bc = dirichlet_bc(mesh, prob, 0.0)
        sys = ResidualSystem(mesh, prob.velocity, params,
                             g=forcing_vector(mesh, prob), dirichlet=bc,
                             bounds=admissible_bounds(mesh, prob, True))
        _, G = sys.assemble_operator(np.zeros(mesh.n_nodes))
        rel = np.linalg.norm(sys.residual(u)) / np.linalg.norm(G)
        assert rel <= 10 * tol
