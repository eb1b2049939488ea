"""The residual's kernels against their former versions, bit for bit.

``former_residual`` keeps the stabilization kernels as they were before each
edge's viscosity was computed once per half edge and each node or row sum
became a sequential CSR product.  Every output here must equal the former
one to the last bit, signed zeros included: Newton and Anderson follow the
last bits of T(u), so a kernel that moves one is a change of results, not a
refactor.  The states hold plateaus, so many terms, ratios and viscosities
are exact zeros.
"""

import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import (VelocityModel, _mass, assemble_convection,
                             pattern)
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.stabilization import StabParams
from dmpfem.system import DirichletBC, ResidualSystem
from former_jacobian import former_detector_derivative
from former_residual import (_smooth_abs_lower, former_assemble_B,
                             former_detector_values, former_edge_operator,
                             former_edge_viscosity, former_operator,
                             former_residual, former_smooth_ratio,
                             former_viscosity,
                             former_viscosity_symmetric_mass)
from helpers import term_row
from meshes import jittered_p1
from test_assembly import constant_velocity

MESHES = {
    "q1": lambda: build_structured(9, 7, kind=Q1),
    "p1": lambda: build_structured(8, 8, kind=P1),
    "jittered-p1": lambda: jittered_p1(8, 4),
}


def assert_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def plateau_state(mesh, seed):
    """A step with flat regions on both sides and noise on a third of the
    nodes."""
    x, y = mesh.coords.T
    u = np.where(x > 0.4 + 0.3 * y, 1.0, 0.0)
    rng = np.random.default_rng(seed)
    noisy = rng.random(mesh.n_nodes) < 1.0 / 3.0
    u[noisy] += 0.1 * rng.standard_normal(noisy.sum())
    return u


def params_for(kind, mass=stab.GRADUAL_LUMPING, **kw):
    base = dict(q=3.0, eps=1e-3, sigma=1e-10, gamma=1e-8, beta_bound=1.0)
    base.update(kw)
    return StabParams(detector=kind, mass=mass, **base)


def make_system(mesh, kind, mass, steady):
    if steady:
        vel, dt, u_old = constant_velocity(0.8, -0.35), None, None
    else:
        vel, dt = VelocityModel.burgers(), 0.02
        u_old = plateau_state(mesh, 7)
    inflow = np.flatnonzero(mesh.is_boundary & (mesh.coords[:, 0] == 0.0))
    bc = DirichletBC(inflow, np.ones(inflow.size))
    g = np.linspace(-0.1, 0.1, mesh.n_nodes)
    return ResidualSystem(mesh, vel, params_for(kind, mass,
                                                beta_bound=vel.beta_bound),
                          g=g, dirichlet=bc, dt=dt, u_old=u_old)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "transient"])
@pytest.mark.parametrize("mass", stab.MASS_KINDS)
@pytest.mark.parametrize("kind", stab.DETECTOR_KINDS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_residual_and_operator_match_the_former_kernels(mesh_name, kind,
                                                        mass, steady):
    mesh = MESHES[mesh_name]()
    sys = make_system(mesh, kind, mass, steady)
    for seed in (0, 1):
        u = plateau_state(mesh, seed)
        A, G = sys.assemble_operator(u)
        A_old, G_old = former_operator(sys, u)
        for name in ("data", "indices", "indptr"):
            assert_bits(getattr(A, name), getattr(A_old, name))
        assert_bits(G, G_old)
        assert_bits(sys.residual(u), former_residual(sys, u))


@pytest.mark.parametrize("kind", stab.DETECTOR_KINDS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_detector_values_match_the_former_kernel(mesh_name, kind):
    mesh = MESHES[mesh_name]()
    for seed in (0, 1, 2):
        u = plateau_state(mesh, seed)
        assert_bits(stab.detector_values(mesh, u, params_for(kind)),
                    former_detector_values(mesh, u, params_for(kind)))


@pytest.mark.parametrize("sigma", [0.0, 1e-10])
@pytest.mark.parametrize("kind", stab.DETECTOR_KINDS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_edge_viscosity_matches_the_former_kernel(mesh_name, kind, sigma):
    mesh = MESHES[mesh_name]()
    pat = pattern(mesh)
    p = params_for(kind, sigma=sigma, eps=1e-3)
    F = assemble_convection(mesh, constant_velocity(0.8, -0.35),
                            np.zeros(mesh.n_nodes))
    M = _mass(mesh)[0]
    for seed in (0, 1):
        alphas = former_detector_values(mesh, plateau_state(mesh, seed), p)
        if kind == stab.GALERKIN:
            alphas = np.random.default_rng(seed).random(mesh.n_nodes)
            alphas[::3] = 0.0
        for K in (F, M):
            assert_bits(stab.edge_viscosity(pat, K, alphas, p),
                        former_edge_viscosity(pat, K, alphas, p))
            if not p.is_smooth:
                continue
            nu, (w_a, w_b) = stab.edge_viscosity(pat, K, alphas, p,
                                                 partials=True)
            nu_old, (w_a_old, w_b_old) = former_edge_viscosity(
                pat, K, alphas, p, partials=True)
            assert_bits(nu, nu_old)
            assert_bits(w_a, w_a_old)
            assert_bits(w_b, w_b_old)


@pytest.mark.parametrize("sigma", [0.0, 1e-10])
@pytest.mark.parametrize("kind", stab.DETECTOR_KINDS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_viscosity_is_the_former_B_of_the_former_nu_operator(mesh_name, kind,
                                                             sigma):
    # B is now built in place from nu's operator; the former route built
    # that operator and then its negated copy
    mesh = MESHES[mesh_name]()
    p = params_for(kind, sigma=sigma)
    F = assemble_convection(mesh, constant_velocity(0.8, -0.35),
                            np.zeros(mesh.n_nodes))
    M = _mass(mesh)[0]
    for seed in (0, 1):
        alphas = former_detector_values(mesh, plateau_state(mesh, seed), p)
        # a third of the nodes at alpha = 0: a = 0 * K_ij, a signed zero
        alphas[::3] = 0.0
        assert_bits(stab.viscosity(mesh, F, alphas, p).data,
                    former_assemble_B(mesh, former_viscosity(
                        mesh, F, alphas, p)).data)
        assert_bits(stab.viscosity_symmetric_mass(mesh, F, M, alphas, 0.02,
                                                  p).data,
                    former_assemble_B(mesh, former_viscosity_symmetric_mass(
                        mesh, F, M, alphas, 0.02, p)).data)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_node_and_row_sums_match_bincount(mesh_name):
    mesh = MESHES[mesh_name]()
    pat = pattern(mesh)
    rng = np.random.default_rng(5)
    # signed zeros everywhere a sum could keep one
    off = rng.standard_normal(pat.edge_pos.size)
    off[::4] = -0.0
    off[1::4] = 0.0
    assert_bits(stab._edge_operator(pat, off).data,
                former_edge_operator(pat, off).data)
    diag = rng.standard_normal(pat.n)
    assert_bits(stab._edge_operator(pat, off, diag=diag).data,
                former_edge_operator(pat, off, diag=diag).data)
    data = rng.standard_normal(pat.nnz)
    data[::3] = -0.0
    assert_bits(pat.csr(data) @ np.ones(pat.n),
                np.bincount(pat.rows, weights=data, minlength=pat.n))
    M = _mass(mesh)[0]
    assert_bits(M @ np.ones(pat.n),
                np.bincount(pat.rows, weights=M.data, minlength=pat.n))
    for family in ("sym", "edge"):
        st = stab._stencil(mesh, family)
        z = rng.standard_normal(st.n_terms)
        z[::2] = -0.0
        lower = stab.smooth_abs_lower(z, 1e-3)
        for new, old in zip(stab._smooth_ratio(st, z, lower, 1e-3, 1e-8),
                            former_smooth_ratio(st, z, lower, 1e-3, 1e-8)):
            assert_bits(new, old)


@pytest.mark.parametrize("kind", [stab.SMOOTH, stab.SIMPLIFIED_SMOOTH])
def test_zero_eps_detector_takes_the_masked_quotient(kind):
    # eps = 0 with gamma > 0: |z|_0 = z^2 / |z|, and +0 at z = 0 (and where
    # z^2 underflows)
    z = np.array([-2.0, -0.0, 0.0, 1e-200, 3.0])
    lower = stab.smooth_abs_lower(z, 0.0)
    assert_bits(lower, np.array([2.0, 0.0, 0.0, 0.0, 3.0]))
    assert_bits(lower, _smooth_abs_lower(z, 0.0))
    assert stab.smooth_abs_lower(0.0, 0.0) == 0.0
    mesh = build_structured(8, 8, kind=Q1)
    p = params_for(kind, eps=0.0, gamma=1e-8)
    u = plateau_state(mesh, 0)
    z = stab._stencil(mesh, stab._family(kind)).Z @ u
    assert np.count_nonzero(z == 0.0) > 0
    alpha = stab.detector_values(mesh, u, p)
    assert_bits(alpha, former_detector_values(mesh, u, p))
    alpha_d, dalpha = stab.detector_derivative(
        mesh, u, p, stab.detector_values(mesh, u, p, state=True)[1])
    assert_bits(alpha_d, alpha)
    assert np.all(np.isfinite(dalpha.data))
    _, dalpha_old = former_detector_derivative(mesh, u, p)
    diff = abs(dalpha - dalpha_old)
    assert diff.max() <= 1e-12 * abs(dalpha_old).max()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_half_edges_pair_each_edge_with_its_transpose(mesh_name):
    pat = pattern(MESHES[mesh_name]())
    h = pat.edge_half
    n_half = pat.half_rows.size
    assert 2 * n_half == pat.edge_pos.size
    # every half index has exactly two edges, (i, j) and (j, i)
    assert np.array_equal(np.bincount(h, minlength=n_half),
                          np.full(n_half, 2))
    order = np.argsort(h, kind="stable")
    first, second = order[0::2], order[1::2]
    assert np.array_equal(pat.edge_rows[first], pat.edge_cols[second])
    assert np.array_equal(pat.edge_cols[first], pat.edge_rows[second])
    # the half is the i < j edges, in edge order
    upper = pat.edge_rows < pat.edge_cols
    assert np.array_equal(h[upper], np.arange(n_half))
    assert np.array_equal(pat.half_rows, pat.edge_rows[upper])
    assert np.array_equal(pat.half_cols, pat.edge_cols[upper])
    assert np.array_equal(pat.half_pos, pat.edge_pos[upper])
    assert np.array_equal(pat.half_transpose_pos,
                          pat.edge_transpose_pos[upper])
    # the oriented map sends the i < j edges into the first half and their
    # transposes, one to one, into the second
    oriented = pat.edge_half_oriented
    assert np.array_equal(oriented, h + n_half * ~upper)
    assert np.array_equal(np.sort(oriented), np.arange(2 * n_half))
    # the diagonal of row i is the i-th diagonal entry
    assert np.array_equal(pat.rows[pat.diag_pos], np.arange(pat.n))


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_half_edge_and_node_sum_maps_are_read_only(mesh_name):
    mesh = MESHES[mesh_name]()
    pat = pattern(mesh)
    arrays = [pat.half_rows, pat.half_cols, pat.half_pos,
              pat.half_transpose_pos, pat.edge_half,
              pat.edge_half_oriented]
    for family in ("sym", "edge"):
        st = stab._stencil(mesh, family)
        arrays += [st.S.data, st.S.indices, st.S.indptr]
        # the node of each term, from the node sums' indptr
        rows = term_row(st)
        assert np.array_equal(np.bincount(rows, minlength=st.n_nodes),
                              np.diff(st.S.indptr))
        assert np.all(np.diff(rows) >= 0)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]
