import numpy as np
import pytest
import sympy as sp

from dmpfem.assembly import (VelocityModel, _mass, assemble_convection,
                             assemble_convection_state_derivative,
                             assemble_forcing, assemble_mass,
                             convection_entry_derivative_tensor, pattern,
                             quadrature)
from dmpfem.bench import PROBLEM_NAMES, make_problem
from dmpfem.mesh import P1, Q1, build_structured
from former_assembly import (former_convection,
                             former_convection_entry_derivative_tensor,
                             former_convection_state_derivative,
                             former_forcing, former_mass)
from helpers import graph_seminorm, transpose_pos
from meshes import jittered_p1


def constant_velocity(vx, vy, beta=None):
    return VelocityModel.linear(
        lambda x, y: (np.full_like(np.asarray(x, dtype=float), vx),
                      np.full_like(np.asarray(x, dtype=float), vy)),
        beta_bound=beta if beta is not None else float(np.hypot(vx, vy)))


# ----------------------------------------------------------------------
# symbolic single-element oracles
# ----------------------------------------------------------------------

def q1_shapes(h):
    # shapes listed in global grid order: (0,0), (h,0), (0,h), (h,h)
    x, y = sp.symbols("x y")
    return x, y, [(1 - x / h) * (1 - y / h), (x / h) * (1 - y / h),
                  (1 - x / h) * (y / h), (x / h) * (y / h)]


def q1_element_integral(h, integrand_fn):
    x, y, phis = q1_shapes(h)
    out = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            out[a, b] = float(sp.integrate(integrand_fn(x, y, phis[a], phis[b]),
                                           (x, 0, h), (y, 0, h)))
    return out


def test_single_q1_mass_matches_symbolic():
    h = 0.35
    mesh = build_structured(1, 1, domain=(0, h, 0, h), kind=Q1)
    M = assemble_mass(mesh).toarray()
    exact = q1_element_integral(h, lambda x, y, pa, pb: pa * pb)
    assert np.max(np.abs(M - exact)) < 1e-12
    # headline entries of the bilinear products
    assert M[0, 0] == pytest.approx(h * h / 9, abs=1e-14)
    assert M[0, 1] == pytest.approx(h * h / 18, abs=1e-14)   # edge neighbor
    assert M[0, 3] == pytest.approx(h * h / 36, abs=1e-14)   # diagonal neighbor


def test_single_q1_constant_convection_matches_symbolic():
    h = 0.5
    mesh = build_structured(1, 1, domain=(0, h, 0, h), kind=Q1)
    vx, vy = 0.7, -0.25
    F = assemble_convection(mesh, constant_velocity(vx, vy), np.zeros(4))
    x, y, phis = q1_shapes(h)
    exact = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            integrand = phis[a] * (vx * sp.diff(phis[b], x) + vy * sp.diff(phis[b], y))
            exact[a, b] = float(sp.integrate(integrand, (x, 0, h), (y, 0, h)))
    assert np.max(np.abs(F.toarray() - exact)) < 1e-12


def test_single_p1_mass_matches_symbolic():
    mesh = build_structured(1, 1, kind=P1)
    M = assemble_mass(mesh).toarray()
    x, y = sp.symbols("x y")
    # first triangle (0,0)-(1,0)-(1,1), barycentric coordinates on 0<=y<=x<=1
    lam = [1 - x, x - y, y]
    exact3 = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            exact3[a, b] = float(sp.integrate(lam[a] * lam[b], (y, 0, x), (x, 0, 1)))
    # compare the contributions on the first element against the assembled
    # matrix restricted to nodes not shared with the second triangle
    assert M[1, 1] == pytest.approx(exact3[1, 1], abs=1e-13)
    assert M[0, 1] == pytest.approx(exact3[0, 1], abs=1e-13)
    assert M[1, 3] == pytest.approx(exact3[1, 2], abs=1e-13)


def test_forcing_linear_g_matches_symbolic():
    mesh = build_structured(1, 1, kind=Q1)
    g = assemble_forcing(mesh, lambda x, y: x)
    x, y, phis = q1_shapes(1.0)
    exact = [float(sp.integrate(x * p, (x, 0, 1), (y, 0, 1))) for p in phis]
    assert np.allclose(g, exact, atol=1e-13)
    assert g[0] == pytest.approx(1 / 12)
    assert g[1] == pytest.approx(1 / 6)


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", [Q1, P1])
def test_mass_partition_of_unity(kind):
    mesh = build_structured(3, 4, kind=kind)
    M = assemble_mass(mesh)
    assert M.data.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(M.data - M.data[transpose_pos(pattern(mesh))])) < 1e-15


@pytest.mark.parametrize("kind", [Q1, P1])
def test_mass_spd(kind):
    mesh = build_structured(3, 3, kind=kind)
    A = assemble_mass(mesh).toarray()
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(mesh.n_nodes)
        assert x @ A @ x > 0


def test_lumped_masses_are_the_cached_row_sums_of_the_mass():
    mesh = jittered_p1(6, 2)
    m = _mass(mesh)[1]
    assert _mass(mesh)[1] is m
    assert m.tobytes() == (assemble_mass(mesh) @ np.ones(mesh.n_nodes)).tobytes()
    with pytest.raises(ValueError):
        m[0] = 1.0


def test_lumped_masses():
    h = 0.4
    single = build_structured(1, 1, domain=(0, h, 0, h), kind=Q1)
    assert np.allclose(_mass(single)[1], h * h / 4, atol=1e-14)
    grid = build_structured(4, 4, kind=Q1)
    m = _mass(grid)[1]
    h = 0.25
    for i in grid.interior_nodes:
        assert m[i] == pytest.approx(h * h, abs=1e-14)
    assert m.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(m > 0)


@pytest.mark.parametrize("kind", [Q1, P1])
def test_constant_velocity_row_sums_vanish(kind):
    mesh = build_structured(4, 3, kind=kind)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.0), np.zeros(mesh.n_nodes))
    assert np.max(np.abs(F @ np.ones(mesh.n_nodes))) < 1e-13


def test_rotational_velocity_row_sums_vanish():
    # the advective form annihilates constants for any velocity field
    mesh = build_structured(5, 5, kind=Q1)
    vel = VelocityModel.linear(
        lambda x, y: (np.asarray(y, dtype=float), -np.asarray(x, dtype=float)),
        beta_bound=np.sqrt(2))
    F = assemble_convection(mesh, vel, np.zeros(mesh.n_nodes))
    assert np.max(np.abs(F @ np.ones(mesh.n_nodes))) < 1e-13


def test_zero_velocity_gives_zero_operator():
    mesh = build_structured(3, 3)
    F = assemble_convection(mesh, constant_velocity(0.0, 0.0), np.zeros(mesh.n_nodes))
    assert np.max(np.abs(F.data)) == 0.0


def test_burgers_constant_state_is_linear_transport():
    # frozen at w = c the Burgers characteristic speed is (c, c)
    mesh = build_structured(3, 3)
    c = 0.6
    w = np.full(mesh.n_nodes, c)
    Fb = assemble_convection(mesh, VelocityModel.burgers(), w)
    Fl = assemble_convection(mesh, constant_velocity(c, c), w)
    assert np.max(np.abs(Fb.data - Fl.data)) < 1e-14


def test_burgers_residual_is_conservative_divergence():
    # F(w) w equals the load vector of div((1,1) w^2 / 2) tested nodally,
    # because the quadrature integrates both forms exactly
    mesh = build_structured(4, 4)
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    w = np.sin(x) * (1 + 0.3 * y)
    F = assemble_convection(mesh, VelocityModel.burgers(), w)
    lhs = F @ w

    _, wq, shape, (gx, gy) = quadrature(mesh)
    we = w[mesh.elements]
    wq_vals = np.einsum("qa,ea->qe", shape, we)
    div_f = wq_vals * (np.einsum("qae,ea->qe", gx, we)
                       + np.einsum("qae,ea->qe", gy, we))
    rhs = np.bincount(mesh.elements.ravel(),
                      weights=np.einsum("qe,qa->ea", wq * div_f, shape).ravel(),
                      minlength=mesh.n_nodes)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_pattern_edges_are_the_mesh_pairs():
    mesh = jittered_p1(5, 1)
    pat = pattern(mesh)
    assert pat.edge_rows is mesh.pair_i and pat.edge_cols is mesh.pair_j
    assert np.array_equal(pat.rows[pat.edge_pos], mesh.pair_i)
    assert np.array_equal(pat.cols[pat.edge_pos], mesh.pair_j)


def test_pattern_is_exactly_adjacency():
    mesh = build_structured(3, 2)
    pat = pattern(mesh)
    for i in range(mesh.n_nodes):
        cols = pat.indices[pat.indptr[i]:pat.indptr[i + 1]]
        touching = mesh.elements[np.any(mesh.elements == i, axis=1)]
        assert list(cols) == sorted(set(touching.ravel()))


# ----------------------------------------------------------------------
# element-last kernels against the former einsum kernels
# ----------------------------------------------------------------------

KERNEL_MESHES = {
    "q1": lambda: build_structured(9, 7),
    "p1": lambda: build_structured(8, 8, kind=P1),
    "jittered-p1": lambda: jittered_p1(10, 5),
}


def assert_same_bits(a, b):
    # stricter than np.array_equal: -0.0 and +0.0 differ here
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def kernel_states(mesh, seed):
    """Random states with exact zeros and -0.0 among the nodal values, and a
    state that is zero everywhere but for one -0.0."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(3):
        u = rng.uniform(-1.5, 1.5, mesh.n_nodes)
        u[rng.random(mesh.n_nodes) < 0.2] = 0.0
        u[rng.random(mesh.n_nodes) < 0.2] = -0.0
        states.append(u)
    zero = np.zeros(mesh.n_nodes)
    zero[mesh.n_nodes // 2] = -0.0
    return states + [zero]


@pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
def test_mass_kernel_matches_the_former_einsum(mesh_name):
    mesh = KERNEL_MESHES[mesh_name]()
    assert_same_bits(assemble_mass(mesh).data, former_mass(mesh).data)


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
@pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
def test_convection_kernels_match_the_former_einsum(mesh_name, problem):
    mesh = KERNEL_MESHES[mesh_name]()
    vel = make_problem(problem).velocity
    for u in kernel_states(mesh, seed=len(problem)):
        assert_same_bits(assemble_convection(mesh, vel, u).data,
                         former_convection(mesh, vel, u).data)
        assert_same_bits(
            assemble_convection_state_derivative(mesh, vel, u).data,
            former_convection_state_derivative(mesh, vel, u).data)
        t = convection_entry_derivative_tensor(mesh, vel, u)
        ref = former_convection_entry_derivative_tensor(mesh, vel, u)
        if vel.is_linear:
            assert t is None and ref is None
        else:
            assert t.flags.c_contiguous
            assert_same_bits(t, ref)


FORCINGS = {
    "polynomial": lambda x, y: x * x - 0.5 * x * y + 0.25,
    "transcendental": lambda x, y: np.sin(x) * np.exp(y),
}


@pytest.mark.parametrize("forcing", sorted(FORCINGS))
@pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
def test_forcing_matches_the_former_einsum(mesh_name, forcing):
    mesh = KERNEL_MESHES[mesh_name]()
    g = FORCINGS[forcing]
    assert_same_bits(assemble_forcing(mesh, g), former_forcing(mesh, g))


@pytest.mark.parametrize("kind", [Q1, P1])
def test_quadrature_is_built_once_element_last_and_read_only(kind):
    mesh = build_structured(4, 3, kind=kind)
    assert "quadrature" not in mesh._cache
    assemble_convection(mesh, VelocityModel.burgers(), np.ones(mesh.n_nodes))
    arrays = mesh._cache["quadrature"]
    assemble_mass(mesh)
    assert quadrature(mesh) is arrays
    points, weights, shape, grads = arrays
    nq, nloc, ne = (4, 4, 12) if kind == Q1 else (3, 3, 24)
    assert points.shape == (2, nq, ne)
    assert weights.shape == (nq, ne)
    assert shape.shape == (nq, nloc)
    assert grads.shape == (2, nq, nloc, ne)
    for a in arrays:
        assert a.flags.c_contiguous
        with pytest.raises(ValueError):
            a[0] = 1.0


# ----------------------------------------------------------------------
# graph seminorm
# ----------------------------------------------------------------------

def test_graph_seminorm_constant_is_zero():
    mesh = build_structured(3, 3)
    assert graph_seminorm(mesh, np.full(mesh.n_nodes, 2.5)) == 0.0


def test_graph_seminorm_two_node_pair():
    # one Q1 cell joins all four nodes; only the three pairs at node 1 differ,
    # each counted from both ends: sqrt(1/2 * 6)
    mesh = build_structured(1, 1)
    assert graph_seminorm(mesh, np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(np.sqrt(3.0))


def test_graph_seminorm_homogeneous():
    mesh = build_structured(4, 2)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(mesh.n_nodes)
    assert graph_seminorm(mesh, 2 * w) == pytest.approx(2 * graph_seminorm(mesh, w))
