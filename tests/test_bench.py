import numpy as np
import pytest

from dmpfem import bench
from dmpfem import stabilization as stab
from dmpfem.assembly import assemble_convection
from dmpfem.bench import (OMEGA, OUTFLOW, PROBLEM_NAMES, dmp_audit, eoc,
                          error_norms, local_dmp_audit, make_problem)
from dmpfem.mesh import P1, Q1, Mesh2D, build_structured
from dmpfem.stabilization import StabParams, detector_values, viscosity
from dmpfem.system import AdmissibleBounds
from dmpfem.timeloop import dirichlet_bc
from helpers import dissipation
from meshes import jittered_p1
from test_assembly import constant_velocity


def test_catalog_names_and_unknown():
    for name in PROBLEM_NAMES:
        assert make_problem(name).name == name
    with pytest.raises(ValueError, match="STEADY_PARABOLIC"):
        make_problem("NOPE")


def test_parabolic_exact_value():
    prob = make_problem("STEADY_PARABOLIC")
    assert prob.exact(0.5, 0.5) == pytest.approx(0.25)


def test_straight_exact_rule():
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    assert prob.exact(0.0, 0.75) == 1.0
    assert prob.exact(0.0, 0.65) == 0.0
    # the front y = 0.7 + 2 x sin(-pi/3)
    x = 0.2
    yfront = 0.7 + 2 * x * np.sin(-np.pi / 3)
    assert prob.exact(x, yfront + 1e-6) == 1.0
    assert prob.exact(x, yfront - 1e-6) == 0.0


def test_circular_exact_annulus():
    prob = make_problem("CIRCULAR_CONVECTION")
    assert prob.exact(0.0, -0.5) == 1.0
    assert prob.exact(0.0, -0.2) == 0.0
    assert prob.exact(0.0, 0.9) == 0.0


def test_three_body_initial_shapes():
    prob = make_problem("THREE_BODY_ROTATION")
    u0 = prob.u0
    assert u0(0.25, 0.5) == pytest.approx(0.5)      # hump center
    assert u0(0.5, 0.25) == pytest.approx(1.0)      # cone apex
    assert u0(0.56, 0.75) == pytest.approx(1.0)     # cylinder body
    assert u0(0.5, 0.75) == pytest.approx(0.0)      # slot
    assert u0(0.5, 0.87) == pytest.approx(1.0)      # above the slot
    assert u0(0.9, 0.9) == pytest.approx(0.0)


def test_burgers_quadrants():
    prob = make_problem("BURGERS2D")
    assert prob.u0(0.25, 0.75) == pytest.approx(-0.2)
    assert prob.u0(0.75, 0.75) == pytest.approx(-1.0)
    assert prob.u0(0.25, 0.25) == pytest.approx(0.5)
    assert prob.u0(0.75, 0.25) == pytest.approx(0.8)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_initial_and_inflow_data_consistent(name):
    # initial data match the inflow data at t = 0 on the inflow nodes
    prob = make_problem(name)
    mesh = build_structured(10, 10, domain=prob.domain)
    if prob.u0 is None:
        return
    bc = dirichlet_bc(mesh, prob, 0.0)
    x, y = mesh.coords[bc.nodes, 0], mesh.coords[bc.nodes, 1]
    u0_vals = np.asarray(prob.u0(x, y), dtype=float)
    assert np.all(np.abs(u0_vals - bc.values) < 1e-12)


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------

# n-by-n meshes of the unit square on which u_h is evaluated
NORM_MESHES = {
    "q1": lambda n: build_structured(n, n, kind=Q1),
    "p1": lambda n: build_structured(n, n, kind=P1),
    "jittered-p1": lambda n: jittered_p1(n, 1),
}


@pytest.mark.parametrize("make_mesh", NORM_MESHES.values(), ids=NORM_MESHES)
def test_error_norms_affine_interpolant_exact(make_mesh):
    prob = make_problem("STEADY_PARABOLIC")
    mesh = make_mesh(6)
    exact = lambda x, y: 0.3 * np.asarray(x) + 0.1 * np.asarray(y) - 0.2
    u = exact(mesh.coords[:, 0], mesh.coords[:, 1])
    l1, l2 = error_norms(mesh, u, exact, region=OMEGA)
    assert l1 < 1e-13 and l2 < 1e-13
    l1o, l2o = error_norms(mesh, u, exact, region=OUTFLOW,
                           inflow_where=prob.inflow_where)
    assert l1o < 1e-13 and l2o < 1e-13


def test_error_report_is_the_domain_and_outflow_norms():
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(6, 6)
    u = np.random.default_rng(4).uniform(0.0, 1.0, mesh.n_nodes)
    l1, l2 = error_norms(mesh, u, prob.exact)
    l1o, l2o = error_norms(mesh, u, prob.exact, region=OUTFLOW,
                           inflow_where=prob.inflow_where)
    assert bench.error_report(mesh, u, prob) == \
        {"L1": l1, "L2": l2, "L1_out": l1o, "L2_out": l2o}


def test_error_norms_reject_non_rectangular_q1():
    # Q1 shape functions are bilinear on axis-aligned rectangles only
    grid = build_structured(3, 3, kind=Q1)
    coords = grid.coords + 0.1 * grid.coords[:, ::-1]
    mesh = Mesh2D(coords, grid.elements, Q1)
    with pytest.raises(ValueError, match="axis-aligned"):
        error_norms(mesh, np.zeros(mesh.n_nodes), lambda x, y: 0 * x)


def test_error_norms_constant_offset():
    prob = make_problem("STEADY_PARABOLIC")
    mesh = build_structured(5, 5)
    exact = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    c = 0.37
    u = np.full(mesh.n_nodes, c)
    l1, l2 = error_norms(mesh, u, exact, region=OMEGA)
    assert l1 == pytest.approx(c * 1.0, abs=1e-13)          # area 1
    assert l2 == pytest.approx(c, abs=1e-13)
    # outflow boundary of this problem is the single edge x = 1
    l1o, _ = error_norms(mesh, u, exact, region=OUTFLOW,
                         inflow_where=prob.inflow_where)
    assert l1o == pytest.approx(c * 1.0, abs=1e-13)          # length 1


@pytest.mark.parametrize("kind", [Q1, P1])
def test_error_norms_do_not_depend_on_the_block_size(kind, monkeypatch):
    # the integrands are filled block by block and summed whole, so the
    # norms are those of one pass over all elements, bit for bit
    prob = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(9, 7, kind=kind)
    u = np.random.default_rng(3).uniform(0.0, 1.0, mesh.n_nodes)
    norms = []
    for block in (mesh.n_elements, 10):
        monkeypatch.setattr(bench, "_NORM_BLOCK", block)
        norms.append(error_norms(mesh, u, prob.exact, region=OMEGA))
    assert norms[0] == norms[1]


def test_error_norms_require_exact():
    mesh = build_structured(2, 2)
    with pytest.raises(ValueError):
        error_norms(mesh, np.zeros(9), None)
    with pytest.raises(ValueError):
        error_norms(mesh, np.zeros(9), lambda x, y: x, region="bogus")
    with pytest.raises(ValueError):
        error_norms(mesh, np.zeros(9), lambda x, y: x, region=OUTFLOW)


def test_eoc_formula_and_floor():
    errs = [1e-2, 2.5e-3, 6.25e-4]
    hs = [0.1, 0.05, 0.025]
    orders = eoc(errs, hs)
    assert np.isnan(orders[0])
    assert orders[1] == pytest.approx(2.0)
    assert orders[2] == pytest.approx(2.0)
    orders = eoc([1e-16, 0.0], hs[:2])
    assert np.isnan(orders[1])


@pytest.mark.parametrize("make_mesh", NORM_MESHES.values(), ids=NORM_MESHES)
def test_interpolation_eoc_second_order(make_mesh):
    # the nodal interpolant's L2 error is O(h^2); from 16^2 on, the jitter's
    # level-to-level variation moves the jittered orders by under 0.02
    prob = make_problem("STEADY_PARABOLIC")
    hs, errs = [], []
    for n in (16, 32, 64):
        mesh = make_mesh(n)
        u = prob.exact(mesh.coords[:, 0], mesh.coords[:, 1])
        _, l2 = error_norms(mesh, u, prob.exact)
        hs.append(1.0 / n)
        errs.append(l2)
    orders = eoc(errs, hs)
    assert orders[1] == pytest.approx(2.0, abs=0.05)
    assert orders[2] == pytest.approx(2.0, abs=0.05)


# ----------------------------------------------------------------------
# audits and dissipation
# ----------------------------------------------------------------------

def test_dmp_audit():
    bounds = AdmissibleBounds(0.0, 1.0)
    assert dmp_audit(np.array([0.1, 0.9]), bounds) == (0.0, 0.0)
    assert dmp_audit(np.array([0.1, 1.05]), bounds) == (pytest.approx(0.05), 0.0)
    assert dmp_audit(np.array([-0.2, 0.5]), bounds) == (0.0, pytest.approx(0.2))


def test_local_dmp_audit_affine_clean():
    mesh = build_structured(6, 6)
    u = 0.7 * mesh.coords[:, 0] - 0.2 * mesh.coords[:, 1]
    assert local_dmp_audit(mesh, u) == []
    u2 = u.copy()
    i = mesh.interior_nodes[0]
    u2[i] += 1.0
    assert local_dmp_audit(mesh, u2) == [int(i)]


def test_dissipation_zero_cases():
    mesh = build_structured(3, 3)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.2), np.zeros(mesh.n_nodes))
    p = StabParams(q=2.0, eps=0.0, sigma=0.0, gamma=0.0,
                   detector=stab.NONSMOOTH, beta_bound=1.0)
    B0 = viscosity(mesh, F, np.zeros(mesh.n_nodes), p)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.n_nodes)
    assert dissipation(mesh, B0, u) == 0.0
    B = viscosity(mesh, F, detector_values(mesh, u, p), p)
    assert dissipation(mesh, B, np.full(mesh.n_nodes, 1.3)) == 0.0
    assert dissipation(mesh, B, u) >= 0.0


def test_dissipation_smooth_dominates():
    mesh = build_structured(4, 4)
    F = assemble_convection(mesh, constant_velocity(0.9, -0.4), np.zeros(mesh.n_nodes))
    p_ns = StabParams(q=4.0, eps=0.0, sigma=0.0, gamma=0.0,
                      detector=stab.NONSMOOTH, beta_bound=1.0)
    p_s = StabParams(q=4.0, eps=1e-4, sigma=1e-9, gamma=1e-10,
                     detector=stab.SMOOTH, beta_bound=1.0)
    rng = np.random.default_rng(14)
    for _ in range(20):
        u = rng.standard_normal(mesh.n_nodes)
        B_ns = viscosity(mesh, F, detector_values(mesh, u, p_ns), p_ns)
        B_s = viscosity(mesh, F, detector_values(mesh, u, p_s), p_s)
        assert dissipation(mesh, B_s, u) >= dissipation(mesh, B_ns, u) - 1e-14


def test_convergence_study_galerkin_second_order():
    from dmpfem.stabilization import StabParams, GALERKIN
    from dmpfem.timeloop import TimeConfig
    from dmpfem.bench import convergence_study
    prob = make_problem("STEADY_PARABOLIC")
    cfg = TimeConfig(stab=StabParams(q=1.0, detector=GALERKIN, beta_bound=1.0),
                     steady=True, solver="newton", projection=False, tol=1e-10)
    rows = convergence_study(prob, (8, 16, 32), lambda h: cfg)
    assert len(rows) == 3
    assert rows[0][0] == pytest.approx(1 / 8)
    assert rows[-1][2] == pytest.approx(2.0, abs=0.1)


def test_convergence_study_requires_exact():
    from dmpfem.bench import convergence_study

    def make_cfg(h):
        raise AssertionError("no configuration is built")

    prob = make_problem("THREE_BODY_ROTATION")
    assert prob.exact is None
    with pytest.raises(ValueError, match="needs an exact solution"):
        convergence_study(prob, (4, 8), make_cfg)
