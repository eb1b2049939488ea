import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import (SparseOperator, assemble_convection,
                             assemble_mass, lumped_masses, pattern)
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.stabilization import (StabParams, assemble_B,
                                  assemble_nonlinear_mass, detector_values,
                                  edge_viscosity, limiter_df, limiter_f,
                                  smooth_abs_lower, smooth_abs_upper,
                                  smooth_max, viscosity,
                                  viscosity_symmetric_mass)
from helpers import dissipation, position, transpose_pos, triangle_fan
from test_assembly import constant_velocity
from test_mesh import hex_fan, neighbors, pair_index

ALL_DETECTORS = (stab.NONSMOOTH, stab.SIMPLIFIED, stab.SMOOTH,
                 stab.SIMPLIFIED_SMOOTH)


def params_for(detector, q=4.0, eps=1e-4, sigma=1e-8, gamma=1e-10):
    if detector in (stab.NONSMOOTH, stab.SIMPLIFIED):
        eps, sigma, gamma = 0.0, 0.0, 0.0
    return StabParams(q=q, eps=eps, sigma=sigma, gamma=gamma,
                      detector=detector, beta_bound=1.0)


def pair_terms(mesh, u):
    """(main, symmetric-or-ghost) directional terms of every node pair: rows
    2p and 2p+1 of the gradient stencil applied to u."""
    z = stab._stencil(mesh, "sym").Z @ u
    return z[0::2], z[1::2]


def jump(mesh, u, i, j):
    d_main, d_sym = pair_terms(mesh, u)
    p = pair_index(mesh, i, j)
    return d_main[p] + d_sym[p]


def mean_abs(mesh, u, i, j):
    d_main, d_sym = pair_terms(mesh, u)
    p = pair_index(mesh, i, j)
    return 0.5 * (abs(d_main[p]) + abs(d_sym[p]))


def interior_hat(mesh, i):
    u = np.zeros(mesh.n_nodes)
    u[i] = 1.0
    return u


# ----------------------------------------------------------------------
# smooth primitives
# ----------------------------------------------------------------------

def test_smooth_max_values():
    assert smooth_max(1.0, 2.0, 0.0) == pytest.approx(2.0)
    assert smooth_max(0.0, 0.0, 0.25) == pytest.approx(0.25)  # sqrt(sigma)/2
    xs = np.linspace(-2, 2, 41)
    for s in (0.0, 1e-3, 0.1):
        vals = smooth_max(xs, 0.3, s)
        assert np.all(vals >= np.maximum(xs, 0.3) - 1e-15)


def test_limiter_values():
    assert limiter_f(0.0) == pytest.approx(0.0)
    assert limiter_f(1.0) == pytest.approx(1.0)
    assert limiter_f(0.5) == pytest.approx(0.75)
    assert limiter_f(2.0) == pytest.approx(1.0)
    # C1 match at 1 and monotone on [0, 1]
    assert limiter_df(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-8)
    xs = np.linspace(0, 1, 101)
    assert np.all(np.diff(limiter_f(xs)) >= -1e-15)


def test_smooth_abs_bracket():
    eps = 1e-3
    assert smooth_abs_upper(0.0, eps) == pytest.approx(np.sqrt(eps))
    assert smooth_abs_lower(0.0, eps) == 0.0
    xs = np.linspace(-3, 3, 61)
    up, lo = smooth_abs_upper(xs, eps), smooth_abs_lower(xs, eps)
    assert np.all(up >= np.abs(xs))
    assert np.all(lo <= np.abs(xs) + 1e-15)


def test_smooth_abs_lower_zero_eps_at_zero():
    assert smooth_abs_lower(0.0, 0.0) == 0.0


# ----------------------------------------------------------------------
# jump / mean
# ----------------------------------------------------------------------

def test_jump_and_mean_on_hat():
    mesh = build_structured(4, 4)
    h = 0.25
    center = 12  # node (2,2)
    u = interior_hat(mesh, center)
    east = center + 1
    assert jump(mesh, u, center, east) == pytest.approx(-2 / h)
    assert mean_abs(mesh, u, center, east) == pytest.approx(1 / h)


def test_jump_vanishes_on_affine_interior():
    mesh = build_structured(8, 8)
    u = mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
    d_main, d_sym = pair_terms(mesh, u)
    pairs = np.isin(mesh.pair_i, mesh.interior_nodes[:10])
    assert pairs.sum() == 80
    assert np.all(np.abs(d_main + d_sym)[pairs] < 1e-12)


def test_jump_and_mean_constant():
    mesh = build_structured(3, 3)
    u = np.full(mesh.n_nodes, 4.2)
    assert jump(mesh, u, 5, 4) == 0.0
    assert mean_abs(mesh, u, 5, 4) == 0.0


def test_boundary_pair_ghost_mirror():
    # absent symmetric point: the jump cancels, the mean keeps the magnitude
    mesh = build_structured(2, 2)
    corner, east = 0, 1
    u = mesh.coords[:, 0].copy()
    assert jump(mesh, u, corner, east) == pytest.approx(0.0)
    assert mean_abs(mesh, u, corner, east) == pytest.approx(abs(u[east] - u[corner]) / 0.5)


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("detector", ALL_DETECTORS)
@pytest.mark.parametrize("kind", [Q1, P1])
def test_detector_one_at_interior_extremum(detector, kind):
    mesh = build_structured(4, 4, kind=kind)
    center = mesh.interior_nodes[len(mesh.interior_nodes) // 2]
    u = interior_hat(mesh, center)
    alpha = detector_values(mesh, u, params_for(detector, q=3.7))
    assert alpha[center] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("detector", ALL_DETECTORS)
def test_detector_randomized_extrema(detector):
    mesh = build_structured(6, 5)
    rng = np.random.default_rng(11)
    p = params_for(detector, q=2.5)
    for _ in range(100):
        u = rng.standard_normal(mesh.n_nodes)
        i = rng.choice(mesh.interior_nodes)
        nb = neighbors(mesh, i)
        u[i] = np.max(u[nb]) + rng.uniform(0.1, 1.0)
        alpha = detector_values(mesh, u, p)
        assert alpha[i] == pytest.approx(1.0, abs=1e-14)


def test_nonsmooth_detector_affine_and_constant():
    mesh = build_structured(8, 8)
    u = mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
    p = params_for(stab.NONSMOOTH, q=1.0)
    assert np.max(detector_values(mesh, u, p)) < 1e-13
    assert np.max(detector_values(mesh, np.full(mesh.n_nodes, 3.3), p)) == 0.0


def test_simplified_detector_cases():
    # one node with neighbor values {0, 2} around value 1: balanced, so 0
    tri = triangle_fan((0.0, 0.0), [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)])
    u = np.array([1.0, 0.0, 2.0, 1.0])
    p = params_for(stab.SIMPLIFIED, q=2.0)
    assert detector_values(tri, u, p)[0] == pytest.approx(0.0, abs=1e-14)

    mesh = build_structured(4, 4)
    center = 12
    alpha = detector_values(mesh, interior_hat(mesh, center), p)
    assert alpha[center] == pytest.approx(1.0)


def test_simplified_affine_exact_zero_with_boundary():
    # binary-exact grid and slopes: the signed edge sums cancel exactly
    mesh = build_structured(8, 8)
    u = 1.25 * mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
    alpha = detector_values(mesh, u, params_for(stab.SIMPLIFIED, q=1.0))
    assert np.max(np.abs(alpha)) == 0.0


def test_smooth_detector_constant_is_one():
    mesh = build_structured(4, 4)
    p = StabParams(q=3.0, eps=1e-6, sigma=0.0, gamma=1e-10,
                   detector=stab.SMOOTH, beta_bound=1.0)
    alpha = detector_values(mesh, np.full(mesh.n_nodes, 2.0), p)
    assert np.allclose(alpha, 1.0)


def test_smooth_detector_affine_vanishes_with_gamma():
    mesh = build_structured(8, 8)
    u = mesh.coords[:, 0] + 0.25 * mesh.coords[:, 1]
    vals = []
    for gamma in (1e-6, 1e-8, 1e-10):
        p = StabParams(q=1.0, eps=0.0, sigma=0.0, gamma=gamma,
                       detector=stab.SMOOTH, beta_bound=1.0)
        vals.append(np.max(detector_values(mesh, u, p)))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-9
    # with eps > 0 the limit is small but positive
    p = StabParams(q=4.0, eps=1e-8, sigma=0.0, gamma=1e-10,
                   detector=stab.SMOOTH, beta_bound=1.0)
    assert np.max(detector_values(mesh, u, p)) < 1e-6


@pytest.mark.parametrize("detector", ALL_DETECTORS)
def test_detector_range_random_fields(detector):
    # 2500 fields per variant, 1e4 in total across the suite
    mesh = build_structured(5, 4)
    rng = np.random.default_rng(23)
    p = params_for(detector, q=0.7)
    for _ in range(2500):
        u = rng.standard_normal(mesh.n_nodes) * rng.uniform(0.1, 10)
        alpha = detector_values(mesh, u, p)
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= 1.0 + 1e-15)


def test_gradient_equals_edge_detector_on_equilateral_fan():
    mesh = hex_fan(radius=0.7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.standard_normal(7)
        a_grad = detector_values(mesh, u, params_for(stab.NONSMOOTH, q=3.0))
        a_edge = detector_values(mesh, u, params_for(stab.SIMPLIFIED, q=3.0))
        assert a_grad[0] == pytest.approx(a_edge[0], abs=1e-12)


def test_smooth_dominates_nonsmooth_detector():
    mesh = build_structured(5, 5)
    rng = np.random.default_rng(17)
    p_ns = params_for(stab.NONSMOOTH, q=4.0)
    p_s = StabParams(q=4.0, eps=1e-4, sigma=0.0, gamma=1e-10,
                     detector=stab.SMOOTH, beta_bound=1.0)
    for _ in range(100):
        u = rng.standard_normal(mesh.n_nodes)
        a_ns = detector_values(mesh, u, p_ns)
        a_s = detector_values(mesh, u, p_s)
        assert np.all(a_s >= a_ns - 1e-14)


def test_detector_derivative_second_order_fd():
    mesh = build_structured(4, 4)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.n_nodes)
    p = StabParams(q=3.0, eps=1e-2, sigma=0.0, gamma=1e-6,
                   detector=stab.SMOOTH, beta_bound=1.0)
    _, dalpha = stab.detector_derivative(mesh, u, p)
    v = rng.standard_normal(mesh.n_nodes)
    exact = dalpha @ v

    def fd(h):
        ap = detector_values(mesh, u + h * v, p)
        am = detector_values(mesh, u - h * v, p)
        return (ap - am) / (2 * h)

    e1 = np.max(np.abs(fd(1e-3) - exact))
    e2 = np.max(np.abs(fd(5e-4) - exact))
    assert e1 / e2 == pytest.approx(4.0, rel=0.5)


def test_detector_derivative_requires_smooth_variant():
    mesh = build_structured(3, 3)
    with pytest.raises(ValueError):
        stab.detector_derivative(mesh, np.zeros(mesh.n_nodes),
                                 params_for(stab.NONSMOOTH))


# ----------------------------------------------------------------------
# viscosity and stabilization operator
# ----------------------------------------------------------------------

def hand_operator(mesh, entries):
    pat = pattern(mesh)
    op = SparseOperator.zeros(pat)
    for (i, j), v in entries.items():
        op.data[position(pat, i, j)] = v
    return op


def test_viscosity_direct_max():
    mesh = build_structured(1, 1)
    F = hand_operator(mesh, {(0, 1): 2.0, (1, 0): -1.0})
    alphas = np.array([1.0, 0.0, 0.0, 0.0])
    nu = viscosity(mesh, F, alphas, params_for(stab.NONSMOOTH))
    nu = nu.to_csr()
    assert nu[0, 1] == pytest.approx(2.0)
    assert nu[1, 0] == pytest.approx(2.0)


def test_viscosity_zero_alphas():
    mesh = build_structured(2, 2)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.0), np.zeros(9))
    nu = viscosity(mesh, F, np.zeros(9), params_for(stab.NONSMOOTH))
    assert np.max(np.abs(nu.data)) == 0.0


def test_viscosity_symmetric_and_row_sums():
    mesh = build_structured(3, 3)
    F = assemble_convection(mesh, constant_velocity(0.7, -0.3), np.zeros(mesh.n_nodes))
    rng = np.random.default_rng(4)
    alphas = rng.uniform(0, 1, mesh.n_nodes)
    for p in (params_for(stab.NONSMOOTH), params_for(stab.SMOOTH, sigma=1e-6)):
        nu = viscosity(mesh, F, alphas, p)
        assert np.max(np.abs(nu.data - nu.data[transpose_pos(nu.pattern)])) == 0.0
        pat = nu.pattern
        off = np.bincount(pat.edge_rows, weights=nu.data[pat.edge_pos],
                          minlength=pat.n)
        diag = nu.data[pat.diag_pos]
        assert np.allclose(diag, off, atol=1e-15)
        assert np.all(nu.data[pat.edge_pos] >= 0)


def test_smooth_viscosity_dominates_nonsmooth():
    mesh = build_structured(4, 4)
    F = assemble_convection(mesh, constant_velocity(0.5, -0.8), np.zeros(mesh.n_nodes))
    rng = np.random.default_rng(21)
    p_ns = params_for(stab.NONSMOOTH, q=4.0)
    p_s = StabParams(q=4.0, eps=1e-4, sigma=1e-9, gamma=1e-10,
                     detector=stab.SMOOTH, beta_bound=1.0)
    for _ in range(50):
        u = rng.standard_normal(mesh.n_nodes)
        nu_ns = viscosity(mesh, F, detector_values(mesh, u, p_ns), p_ns)
        nu_s = viscosity(mesh, F, detector_values(mesh, u, p_s), p_s)
        assert np.all(nu_s.data[nu_s.pattern.edge_pos]
                      >= nu_ns.data[nu_ns.pattern.edge_pos] - 1e-15)


def test_viscosity_pattern_mismatch_rejected():
    mesh_a = build_structured(2, 2)
    mesh_b = build_structured(3, 3)
    F = assemble_convection(mesh_b, constant_velocity(1, 0), np.zeros(16))
    with pytest.raises(ValueError):
        viscosity(mesh_a, F, np.zeros(9), params_for(stab.NONSMOOTH))


def test_edge_viscosity_partials_match_central_differences():
    # with unit alphas a = K_ij and b = K_ji; the pairs cover a generic
    # point, a = b, a close to b, and the inner smooth max c close to zero
    mesh = build_structured(1, 1)
    pat = pattern(mesh)
    sigma = 1e-4
    ab = {(0, 1): (0.3, -0.2), (0, 2): (0.5, 0.5), (0, 3): (0.5, 0.5 + 1e-7),
          (1, 2): (-0.005, -0.005), (1, 3): (-0.004, -0.006),
          (2, 3): (-1.0, 2.0)}
    assert abs(smooth_max(-0.005, -0.005, sigma)) < 1e-15
    entries = {}
    for (i, j), (a, b) in ab.items():
        entries[(i, j)], entries[(j, i)] = a, b
    K = hand_operator(mesh, entries)
    alphas = np.ones(mesh.n_nodes)
    p = params_for(stab.SMOOTH, sigma=sigma)
    nu, (d_a, d_b) = edge_viscosity(pat, K, alphas, p, partials=True)
    assert np.array_equal(nu, edge_viscosity(pat, K, alphas, p))
    h = 1e-6
    for e in range(pat.edge_pos.size):
        for pos, exact in ((pat.edge_pos[e], d_a[e]),
                           (pat.edge_transpose_pos[e], d_b[e])):
            Kp = SparseOperator(K.pattern, K.data.copy())
            Km = SparseOperator(K.pattern, K.data.copy())
            Kp.data[pos] += h
            Km.data[pos] -= h
            fd = (edge_viscosity(pat, Kp, alphas, p)[e]
                  - edge_viscosity(pat, Km, alphas, p)[e]) / (2 * h)
            assert exact == pytest.approx(fd, abs=1e-7)
    with pytest.raises(ValueError):
        edge_viscosity(pat, K, alphas, params_for(stab.NONSMOOTH),
                       partials=True)


def test_symmetric_mass_viscosity():
    mesh = build_structured(3, 3)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.0), np.zeros(mesh.n_nodes))
    M = assemble_mass(mesh)
    p = params_for(stab.NONSMOOTH)
    zero = np.zeros(mesh.n_nodes)
    base = viscosity(mesh, F, zero, p)
    aug = viscosity_symmetric_mass(mesh, F, M, zero, 0.1, p)
    assert np.allclose(aug.data, base.data)

    ones = np.ones(mesh.n_nodes)
    dt = 0.05
    aug = viscosity_symmetric_mass(mesh, F, M, ones, dt, p)
    base = viscosity(mesh, F, ones, p)
    pat = aug.pattern
    expected = base.data[pat.edge_pos] + M.data[pat.edge_pos] / dt
    assert np.allclose(aug.data[pat.edge_pos], expected, atol=1e-15)

    # dt -> infinity recovers the plain viscosity
    aug = viscosity_symmetric_mass(mesh, F, M, ones, 1e12, p)
    assert np.allclose(aug.data, base.data, atol=1e-12)

    with pytest.raises(ValueError):
        viscosity_symmetric_mass(mesh, F, M, zero, 0.0, p)


def test_assemble_B_structure():
    mesh = build_structured(3, 3)
    nu = hand_operator(mesh, {})
    assert np.max(np.abs(assemble_B(mesh, nu).data)) == 0.0

    F = assemble_convection(mesh, constant_velocity(0.3, 0.9), np.zeros(mesh.n_nodes))
    rng = np.random.default_rng(6)
    alphas = rng.uniform(0, 1, mesh.n_nodes)
    nu = viscosity(mesh, F, alphas, params_for(stab.NONSMOOTH))
    B = assemble_B(mesh, nu)
    assert np.max(np.abs(B.row_sums())) < 1e-15
    const = np.full(mesh.n_nodes, 3.7)
    assert np.max(np.abs(B.matvec(const))) < 1e-13


def test_pair_dissipation_identity():
    # single triangle with one active edge: u^T B u = 1, edge double sum = 2
    tri = triangle_fan((0.0, 0.0), [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)])
    nu = hand_operator(tri, {(0, 1): 1.0, (1, 0): 1.0})
    pat = nu.pattern
    nu.data[pat.diag_pos] = np.bincount(pat.edge_rows,
                                        weights=nu.data[pat.edge_pos],
                                        minlength=pat.n)[pat.rows[pat.diag_pos]]
    B = assemble_B(tri, nu)
    u = np.array([0.0, 1.0, 0.0, 0.0])
    assert u @ B.matvec(u) == pytest.approx(1.0)
    assert dissipation(tri, nu, u) == pytest.approx(2.0)


def test_dissipation_nonnegative_random():
    mesh = build_structured(4, 3)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.4), np.zeros(mesh.n_nodes))
    rng = np.random.default_rng(31)
    p = params_for(stab.NONSMOOTH, q=2.0)
    for _ in range(50):
        u = rng.standard_normal(mesh.n_nodes)
        nu = viscosity(mesh, F, detector_values(mesh, u, p), p)
        B = assemble_B(mesh, nu)
        assert u @ B.matvec(u) >= -1e-14


def test_nonlinear_mass_blend():
    mesh = build_structured(3, 4)
    M = assemble_mass(mesh)
    m = lumped_masses(mesh)
    zero = np.zeros(mesh.n_nodes)
    ones = np.ones(mesh.n_nodes)
    assert np.allclose(assemble_nonlinear_mass(mesh, M, m, zero).data, M.data)

    lumped = assemble_nonlinear_mass(mesh, M, m, ones)
    pat = lumped.pattern
    assert np.max(np.abs(lumped.data[pat.edge_pos])) == 0.0
    assert np.allclose(lumped.data[pat.diag_pos], m)

    rng = np.random.default_rng(8)
    alphas = rng.uniform(0, 1, mesh.n_nodes)
    blend = assemble_nonlinear_mass(mesh, M, m, alphas)
    assert np.allclose(blend.row_sums(), m, atol=1e-14)


def test_K_sign_structure_at_extremum():
    mesh = build_structured(5, 5)
    vel = constant_velocity(0.5, np.sin(-np.pi / 3))
    rng = np.random.default_rng(12)
    p = params_for(stab.NONSMOOTH, q=8.0)
    for _ in range(20):
        u = rng.standard_normal(mesh.n_nodes)
        i = rng.choice(mesh.interior_nodes)
        u[i] = np.max(u[neighbors(mesh, i)]) + 0.5
        F = assemble_convection(mesh, vel, u)
        alphas = detector_values(mesh, u, p)
        assert alphas[i] == 1.0
        K = F.data + assemble_B(mesh, viscosity(mesh, F, alphas, p)).data
        pat = F.pattern
        row = slice(pat.indptr[i], pat.indptr[i + 1])
        cols = pat.indices[row]
        vals = K[row]
        assert np.all(vals[cols != i] <= 1e-12)
        assert abs(vals.sum()) < 1e-12


def test_linearity_preservation_exact():
    # affine data: no detector response, Galerkin operators recovered exactly
    mesh = build_structured(8, 8)
    u = mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
    p = params_for(stab.NONSMOOTH, q=4.0)
    alphas = detector_values(mesh, u, p)
    assert np.max(alphas) < 1e-13
    F = assemble_convection(mesh, constant_velocity(1.0, 0.0), u)
    B = assemble_B(mesh, viscosity(mesh, F, alphas, p))
    assert np.max(np.abs(B.data)) <= 1e-13 * np.max(np.abs(F.data))
    M = assemble_mass(mesh)
    Mb = assemble_nonlinear_mass(mesh, M, lumped_masses(mesh), alphas)
    assert np.max(np.abs(Mb.data - M.data)) <= 1e-13 * np.max(M.data)


def test_weak_linearity_preservation_smooth():
    mesh = build_structured(8, 8)
    h = 1 / 8
    u = mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
    p = StabParams(q=4.0, eps=1e-8, sigma=(h ** 4 * 1e-8) ** 2, gamma=1e-10,
                   detector=stab.SMOOTH, beta_bound=1.0)
    alphas = detector_values(mesh, u, p)
    F = assemble_convection(mesh, constant_velocity(1.0, 0.0), u)
    B = assemble_B(mesh, viscosity(mesh, F, alphas, p))
    assert np.max(np.abs(B.data)) <= 1e-6 * np.max(np.abs(F.data))


def test_params_validation():
    with pytest.raises(ValueError):
        StabParams(q=0.0)
    with pytest.raises(ValueError):
        StabParams(q=1.0, eps=-1e-3)
    with pytest.raises(ValueError):
        StabParams(q=1.0, detector="bogus")
    with pytest.raises(ValueError):
        StabParams(q=1.0, mass="bogus")
    with pytest.raises(ValueError):
        StabParams(q=1.0, eps=0.0, gamma=0.0, detector=stab.SMOOTH)
