from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from dmpfem import solvers, system
from dmpfem import stabilization as stab
from dmpfem.assembly import (VelocityModel, assemble_convection, assemble_mass,
                             pattern)
from dmpfem.bench import make_problem
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.stabilization import StabParams
from dmpfem.system import (AdmissibleBounds, DirichletBC, ResidualSystem,
                           SingularSystemError, _jacobi_gmres,
                           _nested_dissection, _without_zeros, jacobian_order,
                           solve_linear)
from dmpfem.timeloop import (ANDERSON, NEWTON, TimeConfig, dirichlet_bc,
                             forcing_vector, run_transient)
from test_assembly import constant_velocity
from former_jacobian import former_jacobian
from meshes import delaunay_p1, jittered_p1
from test_jacobian_fingerprint import (CASES, _steady_newton_run, _system,
                                       assert_same_jacobian)
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
    dict(label="linear-transient-symmass", burgers=False, dt=0.01,
         detector=stab.SMOOTH, mass=stab.SYMMETRIC_MASS),
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


@pytest.mark.parametrize("case", SMOOTH_CASES, ids=lambda c: c["label"])
def test_jacobian_matches_finite_differences_on_a_jittered_mesh(case):
    # geometric symmetric points: the sym family's terms interpolate at
    # points inside macroelement sides; the edge family's ghost terms cancel
    # in each boundary node's jump
    mesh = jittered_p1(5, 0)
    sys = build_system(mesh, case, seed=5)
    u = random_state(mesh, seed=35)
    J = sys.jacobian(u).toarray()
    J_fd = fd_jacobian(sys, u)
    assert np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd)) < 1e-6


def _states(mesh):
    x, y = mesh.coords.T
    return {"random": random_state(mesh, 9),
            # plateaus: rows of d alpha vanish or lose entries
            "clipped_ramp": np.clip(3.0 * x - 1.0, 0.0, 1.0),
            "disc": np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1, 1.0, 0.0)}


def _state_system(mesh, case, state):
    mesh = {"jittered_p1": lambda: jittered_p1(6, 1),
            "delaunay_p1": lambda: delaunay_p1(6, 2),
            "q1": lambda: build_structured(7, 6)}[mesh]()
    return build_system(mesh, case, seed=6), _states(mesh)[state]


@pytest.mark.parametrize("state", ["random", "clipped_ramp", "disc"])
@pytest.mark.parametrize("case", SMOOTH_CASES, ids=lambda c: c["label"])
@pytest.mark.parametrize("mesh", ["jittered_p1", "q1"])
def test_jacobian_matches_the_former_assembly(mesh, case, state):
    sys, u = _state_system(mesh, case, state)
    assert_same_jacobian(sys.jacobian(u), former_jacobian(sys, u))


def _rows_strictly_increasing(A):
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return bool(np.all(np.diff(row * A.shape[1] + A.indices) > 0))


@pytest.mark.parametrize("state", ["random", "clipped_ramp", "disc"])
@pytest.mark.parametrize("case", SMOOTH_CASES, ids=lambda c: c["label"])
@pytest.mark.parametrize("mesh", ["jittered_p1", "q1"])
def test_jacobian_and_detector_derivative_have_sorted_rows(mesh, case, state):
    sys, u = _state_system(mesh, case, state)
    J = sys.jacobian(u)
    assert J.has_canonical_format and _rows_strictly_increasing(J)
    state = stab.detector_values(sys.mesh, u, sys.params, state=True)[1]
    dalpha = stab.detector_derivative(sys.mesh, u, sys.params, state)[1]
    assert dalpha.has_canonical_format and _rows_strictly_increasing(dalpha)
    assert np.all(dalpha.data != 0.0)
    # a row is empty exactly where the limiter is flat
    ratio = state[2]
    assert np.array_equal(np.diff(dalpha.indptr) == 0,
                          stab.limiter_df(ratio) == 0.0)


def _same_bits(A, B):
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and A.data.tobytes() == B.data.tobytes())


@pytest.mark.parametrize("state", ["random", "clipped_ramp", "disc"])
@pytest.mark.parametrize("case", SMOOTH_CASES, ids=lambda c: c["label"])
@pytest.mark.parametrize("mesh", ["jittered_p1", "delaunay_p1", "q1"])
def test_jacobian_from_the_kept_evaluation_is_the_jacobian_from_scratch(
        mesh, case, state):
    # J starts from the A(u) and detector state that T(u)'s evaluation kept;
    # a bare jacobian(u) makes that evaluation itself.  Same bits either
    # way, the evaluation is left as it was, and J is canonical CSR.  The
    # former assembly sums in another order, so it agrees to roundoff.
    sys, u = _state_system(mesh, case, state)
    T, evaluation = sys.residual(u, keep=True)
    assert T.tobytes() == sys.residual(u).tobytes()
    A = evaluation[0].copy()
    J = sys.jacobian(u, evaluation)
    assert _same_bits(J, sys.jacobian(u))
    assert _same_bits(evaluation[0], A)
    assert _same_bits(sys.jacobian(u, evaluation), J)
    assert _rows_strictly_increasing(J) and np.all(J.data != 0.0)
    assert_same_jacobian(J, former_jacobian(sys, u))


def test_galerkin_jacobian_from_the_kept_evaluation():
    mesh = build_structured(6, 6)
    vel = VelocityModel.burgers()
    params = StabParams(q=3.0, detector=stab.GALERKIN,
                        beta_bound=vel.beta_bound)
    sys = ResidualSystem(mesh, vel, params, dirichlet=dirichlet_west(mesh),
                         dt=0.02, u_old=random_state(mesh, 11))
    u = random_state(mesh, 12)
    evaluation = sys.residual(u, keep=True)[1]
    assert evaluation[1] is None
    A = evaluation[0].copy()
    J = sys.jacobian(u, evaluation)
    assert _same_bits(J, sys.jacobian(u))
    assert _same_bits(evaluation[0], A)
    assert _rows_strictly_increasing(J) and np.all(J.data != 0.0)


def test_jacobian_galerkin_is_mass_plus_convection():
    mesh = build_structured(4, 4)
    vel = constant_velocity(1.0, 0.0)
    params = StabParams(q=4.0, detector=stab.GALERKIN, beta_bound=1.0)
    dt = 0.05
    sys = ResidualSystem(mesh, vel, params, dirichlet=dirichlet_west(mesh),
                         dt=dt, u_old=np.zeros(mesh.n_nodes))
    J = sys.jacobian(random_state(mesh, 3)).toarray()
    M = assemble_mass(mesh).toarray()
    F = assemble_convection(mesh, vel, np.zeros(mesh.n_nodes)).toarray()
    expected = M / dt + F
    free = ~np.isin(np.arange(mesh.n_nodes), sys.dirichlet.nodes)
    assert np.max(np.abs(J[free] - expected[free])) < 1e-14
    for i in sys.dirichlet.nodes:
        row = J[i]
        assert row[i] == 1.0
        assert np.max(np.abs(np.delete(row, i))) == 0.0


@pytest.mark.parametrize("dt", [None, 0.02])
def test_jacobian_galerkin_matches_finite_differences_for_burgers(dt):
    # no viscosity: J is F + F' (+ M/dt) on the rows that are not Dirichlet
    mesh = build_structured(6, 6)
    vel = VelocityModel.burgers()
    params = StabParams(q=3.0, detector=stab.GALERKIN,
                        beta_bound=vel.beta_bound)
    u_old = None if dt is None else random_state(mesh, 11)
    sys = ResidualSystem(mesh, vel, params, dirichlet=dirichlet_west(mesh),
                         dt=dt, u_old=u_old)
    u = random_state(mesh, 12)
    J = sys.jacobian(u).toarray()
    J_fd = fd_jacobian(sys, u)
    assert np.max(np.abs(J - J_fd)) / np.max(np.abs(J_fd)) < 1e-6


def test_jacobian_rejects_nonsmooth_detector():
    mesh = build_structured(3, 3)
    params = StabParams(q=2.0, eps=0.0, sigma=0.0, gamma=0.0,
                        detector=stab.NONSMOOTH, beta_bound=1.0)
    sys = ResidualSystem(mesh, constant_velocity(1.0, 0.0), params,
                         dirichlet=dirichlet_west(mesh))
    with pytest.raises(ValueError):
        sys.jacobian(np.zeros(mesh.n_nodes))


def test_residual_zero_at_fixed_point():
    mesh = build_structured(6, 6)
    vel = constant_velocity(1.0, 0.0)
    params = StabParams(q=4.0, eps=1e-4, sigma=1e-10, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=1.0)
    bc = dirichlet_west(mesh, value=0.5)
    sys = ResidualSystem(mesh, vel, params, dirichlet=bc,
                         bounds=AdmissibleBounds(0.0, 1.0))
    u, _ = sys.picard_solve(np.full(mesh.n_nodes, 0.5))
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


def test_jacobian_order_is_a_deterministic_permutation_built_once():
    for kind in (Q1, P1):
        mesh = build_structured(13, 9, kind=kind)
        order = jacobian_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.n_nodes))
        assert jacobian_order(mesh) is order
        again = build_structured(13, 9, kind=kind)
        assert np.array_equal(jacobian_order(again), order)


@pytest.mark.parametrize("x", [np.zeros(40), np.repeat([0.0, 1.0], [30, 10])])
def test_nested_dissection_splits_tied_coordinates(x):
    # a path graph whose nodes share their smallest coordinate, or all of it
    n = x.size
    adj = sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    pat = SimpleNamespace(n=n, rows=rows, cols=adj.indices)
    order = _nested_dissection(pat, np.column_stack([x, np.zeros(n)]))
    assert np.array_equal(np.sort(order), np.arange(n))


def test_jacobian_order_separates_on_the_distance_two_graph():
    # the last nodes of the order form the top-level separator: the smallest
    # such tail whose removal splits J's graph (distance 2 in the mesh) into
    # parts; below it, the halves are ordered one after the other
    mesh = build_structured(24, 24)
    order = jacobian_order(mesh)
    pat = pattern(mesh)
    adj = pat.csr(np.ones(pat.nnz))
    graph = (adj @ adj)[order][:, order]
    for tail in range(1, mesh.n_nodes):
        head = graph[:-tail, :-tail]
        count, label = connected_components(head, directed=False)
        if count > 1:
            break
    # two node columns; the lower-half interior, then the upper half
    assert (count, tail) == (2, 2 * 25)
    assert np.all(np.diff(label) >= 0)


def test_jacobian_order_is_not_built_by_set_up_or_by_anderson():
    problem = make_problem("BURGERS2D")
    mesh = build_structured(6, 6, domain=problem.domain, kind=P1)
    params = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    pattern(mesh)
    stab.detector_values(mesh, np.zeros(mesh.n_nodes), params)
    newton_only = ("jacobian_order", ("derivative_structure", "sym"))
    assert not any(key in mesh._cache for key in newton_only)
    # nor the quadrature, which the first convection builds
    assert "quadrature" not in mesh._cache
    cfg = TimeConfig(stab=params, dt=1e-2, t_end=1e-2, solver=ANDERSON,
                     projection=True, tol=1e-5, k_max=300)
    run_transient(mesh, problem, cfg)
    assert not any(key in mesh._cache for key in newton_only)
    assert "quadrature" in mesh._cache
    run_transient(mesh, problem, replace(cfg, solver=NEWTON, projection=False))
    assert all(key in mesh._cache for key in newton_only)


@pytest.mark.parametrize("name", sorted(CASES))
def test_symmetric_mode_solve_of_the_jacobian_matches_spsolve(name):
    sys, u = CASES[name]()
    J, b = sys.jacobian(u), -sys.residual(u)
    x, _ = solve_linear(J, b, order=sys.jacobian_order)
    ref = spla.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def structurally_symmetric_matrix(seed, diagonal, n=80):
    """Random values on a random symmetric pattern.  On about 30 % of the
    rows the diagonal is ``"zero"`` (not stored) or ``"tiny"`` (1e-14 times
    the largest off-diagonal magnitude of its column); ``"regular"`` keeps
    a standard normal diagonal everywhere."""
    rng = np.random.default_rng(seed)
    upper = sp.triu(sp.random(n, n, density=0.08, random_state=rng), k=1)
    A = (upper + upper.T).tocsr()
    A.data = rng.standard_normal(A.nnz)
    d = rng.standard_normal(n)
    col_max = abs(A).max(axis=0).toarray().ravel()
    weak = (rng.random(n) < 0.3) & (col_max > 0)
    if diagonal == "zero":
        d[weak] = 0.0
    elif diagonal == "tiny":
        d[weak] = 1e-14 * col_max[weak]
    A = (A + sp.diags(d)).tocsr()
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("diagonal", ["regular", "zero", "tiny"])
def test_symmetric_mode_solve_pivots_off_weak_diagonals(diagonal):
    # a diagonal pivot below 0.01 of its column's largest entry is refused;
    # taking the 1e-14 diagonals as pivots leaves relative residuals of 1e-2
    # to 0.2
    for seed in range(5):
        A = structurally_symmetric_matrix(seed, diagonal)
        pattern = A.astype(bool)
        assert (pattern != pattern.T).nnz == 0 and (A != A.T).nnz > 0
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(A.shape[0])
        x, _ = solve_linear(A, b, order=rng.permutation(A.shape[0]))
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("matrix", [
    [[0.0]],
    [[1.0, 1.0], [1.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
def test_symmetric_mode_solve_of_a_singular_matrix_raises(matrix):
    A = sp.csr_matrix(np.array(matrix))
    for order in (np.arange(A.shape[0]), None):
        with pytest.raises(SingularSystemError,
                           match="Factor is exactly singular"):
            solve_linear(A, np.ones(A.shape[0]), order=order)


@pytest.mark.parametrize("block", [[[1.0, 1.0], [1.0, 1.0]],
                                   [[1.0, 3.0], [3.0, 9.0]]])
def test_krylov_solve_of_an_inconsistent_singular_matrix_raises(block):
    # n > m and a nonzero diagonal, so GMRES is tried first: a singular block
    # in the corner of the identity, with a right side outside its range.
    # On the second, GMRES's own residual estimate meets the tolerance; only
    # the residual of its x shows that it solved nothing.  Both fallbacks,
    # J's (with an ordering) and A(u)'s, must then report the singularity.
    n = 100
    A = sp.eye(n, format="lil")
    A[:2, :2] = block
    b = np.zeros(n)
    b[0] = 1.0
    for order in (np.arange(n), None):
        with pytest.raises(SingularSystemError,
                           match="Factor is exactly singular"):
            solve_linear(A.tocsr(), b, order=order)


def _nearly_singular(n, s_min, seed=0):
    """Dense random n x n CSR matrix with singular values 1 and one s_min."""
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    s = np.ones(n)
    s[-1] = s_min
    return sp.csr_matrix(Q1 @ np.diag(s) @ Q2.T), rng.standard_normal(n)


def test_factorized_solve_of_a_numerically_singular_matrix_raises():
    # sigma_min / sigma_max = 1e-16: not exactly singular, so SuperLU
    # factorizes it in both modes and returns a finite x, whose residual
    # shows that it solves nothing
    A, b = _nearly_singular(20, 1e-16)
    for x in (spla.splu(A.tocsc()).solve(b), _nested_dissection_solve(
            A, b, np.arange(A.shape[0]))):
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(A @ x - b) > 1e-2 * np.linalg.norm(b)
    for order in (np.arange(A.shape[0]), None):
        with pytest.raises(SingularSystemError,
                           match="relative residual .* after factorization"):
            solve_linear(A, b, order=order)
    # conditioned at 1e6, its relative residual, about 2e-11, stays far
    # below the bound
    A, b = _nearly_singular(20, 1e-6)
    x, factorized = solve_linear(A, b)
    assert factorized
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


def _nested_dissection_solve(A, b, order):
    """The factorization that the J path falls back to, called directly."""
    P = A.tocsr()[order].tocsc()[:, order]
    y = spla.splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                  options=dict(SymmetricMode=True)).solve(b[order])
    x = np.empty_like(y)
    x[order] = y
    return x


def _count_factorizations(monkeypatch):
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **kw: calls.append(1) or splu(*a, **kw))
    return calls


@pytest.mark.parametrize("name", sorted(set(CASES) - {"steady_linear_q1"}))
def test_transient_jacobian_is_solved_without_a_factorization(name,
                                                              monkeypatch):
    sys, u = CASES[name]()
    J, b = sys.jacobian(u), -sys.residual(u)
    calls = _count_factorizations(monkeypatch)
    x, factorized = solve_linear(J, b, order=sys.jacobian_order)
    assert calls == [] and not factorized
    ref = spla.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_steady_jacobian_falls_back_to_the_nested_dissection_solve(
        monkeypatch):
    sys, u = CASES["steady_linear_q1"]()
    J, b = sys.jacobian(u), -sys.residual(u)
    ref = _nested_dissection_solve(J, b, sys.jacobian_order)
    calls = _count_factorizations(monkeypatch)
    x, factorized = solve_linear(J, b, order=sys.jacobian_order)
    assert len(calls) == 1 and factorized
    assert np.array_equal(x, ref)


def test_jacobian_with_a_zero_diagonal_entry_falls_back(monkeypatch):
    sys, u = CASES["transient_gradual_q1"]()
    J, b = sys.jacobian(u), -sys.residual(u)
    i = J.shape[0] // 2
    J[i, i] = 0.0
    ref = _nested_dissection_solve(J, b, sys.jacobian_order)
    calls = _count_factorizations(monkeypatch)
    with np.errstate(divide="raise", invalid="raise"):   # no 1/0 is tried
        x, factorized = solve_linear(J, b, order=sys.jacobian_order)
    assert len(calls) == 1 and factorized
    assert np.array_equal(x, ref)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"steady_linear_q1"}))
def test_transient_operator_is_solved_without_a_factorization(name,
                                                              monkeypatch):
    sys, u = CASES[name]()
    A, G = sys.assemble_operator(u)
    calls = _count_factorizations(monkeypatch)
    x, factorized = sys.picard_solve(u)
    assert calls == [] and not factorized
    ref = spla.spsolve(A.tocsc(), G)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_steady_operator_falls_back_to_the_colamd_solve(monkeypatch):
    # no M/dt term: on STRAIGHT_DISCONTINUITY Q1 12^2 the rate after 10
    # iterations cannot reach the tolerance, and the cycle gives up
    sys, u = _system("STRAIGHT_DISCONTINUITY", 12, Q1, None,
                     stab.GRADUAL_LUMPING)
    A, G = sys.assemble_operator(u)
    ref = spla.spsolve(_without_zeros(A).tocsc(), G)
    calls = _count_factorizations(monkeypatch)
    x, factorized = sys.picard_solve(u)
    assert len(calls) == 1 and factorized
    assert np.array_equal(x, ref)


class Counting:
    """A matrix that counts the products the GMRES cycle takes with it."""

    def __init__(self, A):
        self.A = A
        self.products = 0

    def diagonal(self):
        return self.A.diagonal()

    def __matmul__(self, x):
        self.products += 1
        return self.A @ x


def test_krylov_cycle_gives_up_when_the_recent_rate_stalls():
    # the first Picard operator of STRAIGHT_DISCONTINUITY q=4 on Q1 48^2:
    # the rate of the first 10 iterations would reach the tolerance, the
    # residual then stalls near 3e-3, and the check at 20 gives up instead
    # of running all 60 iterations
    problem = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(48, 48)
    beta = problem.velocity.beta_bound
    params = StabParams(q=4.0, eps=1e-2, sigma=beta * 1e-9, gamma=1e-10,
                        detector=stab.SMOOTH, beta_bound=beta)
    bc = dirichlet_bc(mesh, problem, 0.0)
    sys = ResidualSystem(mesh, problem.velocity, params,
                         g=forcing_vector(mesh, problem), dirichlet=bc)
    u = np.zeros(mesh.n_nodes)
    u[bc.nodes] = bc.values
    A, G = sys.assemble_operator(u)
    counting = Counting(A)
    assert _jacobi_gmres(counting, G) is None
    assert counting.products == 20


def test_krylov_cycle_stops_at_the_given_tolerance():
    # a transient J solved to Newton's forcing term: the residual meets the
    # looser tolerance, in fewer products than at 1e-12
    sys, u = CASES["transient_gradual_q1"]()
    J, b = sys.jacobian(u), -sys.residual(u)
    products = {}
    for rtol in (1e-12, 1e-4):
        counting = Counting(J)
        x = _jacobi_gmres(counting, b, rtol)
        assert np.linalg.norm(J @ x - b) <= rtol * np.linalg.norm(b)
        products[rtol] = counting.products
    assert products[1e-4] < products[1e-12]


def test_steady_jacobian_cycle_gives_up_at_the_forcing_cap(monkeypatch):
    # every steady J of the steady_newton stabilization (Q1 16^2) misses
    # even the loosest forcing term at the first rate check, so Newton still
    # factorizes each one and the steady field keeps its bits.  (The q = 3,
    # eps = 1e-2 J of CASES["steady_linear_q1"] on Q1 8^2 passes that check
    # at 1e-2 and converges in 12 products.)
    calls = []

    def counted(A, b, rtol):
        counting = Counting(A)
        x = _jacobi_gmres(counting, b, rtol)
        calls.append((rtol, counting.products, x is None))
        return x

    monkeypatch.setattr(system, "_jacobi_gmres", counted)
    _, report = _steady_newton_run()
    assert report.converged and len(calls) == report.iterations
    assert calls[0][0] == solvers.FORCING_CAP
    assert all(products == 10 and gave_up for _, products, gave_up in calls)


def test_factorized_solve_matches_spsolve_for_each_structure():
    # n <= 60, so every solve is factorized: bit-identical to spsolve for
    # each structure, among them a stored zero, which is a structure of its
    # own to COLAMD, and an entry moved within its column (the same indptr)
    rng = np.random.default_rng(7)
    n = 60
    base = (sp.random(n, n, density=0.06, random_state=rng)
            + sp.eye(n)).tocsr()
    extra = (base + sp.random(n, n, density=0.03, random_state=rng)).tocsr()
    coo = base.tocoo()
    j = np.flatnonzero(base[0].toarray().ravel() == 0.0)[-1]
    stored_zero = sp.csr_matrix((np.append(coo.data, 0.0),
                                 (np.append(coo.row, 0), np.append(coo.col, j))),
                                shape=(n, n))
    assert stored_zero.nnz == base.nnz + 1
    row = coo.row.copy()
    k = np.flatnonzero(coo.row != coo.col)[0]
    taken = coo.row[coo.col == coo.col[k]]
    row[k] = np.setdiff1d(np.arange(n), taken)[0]
    moved = sp.csr_matrix((coo.data, (row, coo.col)), shape=(n, n))
    assert np.array_equal(moved.tocsc().indptr, base.tocsc().indptr)
    structures = [base, base, extra, extra, stored_zero, base, moved, extra]
    orders = {tuple(spla.splu(A.tocsc()).perm_c) for A in structures}
    assert len(orders) == 4
    for A in structures:
        A = A.copy()
        A.data = rng.standard_normal(A.nnz) * (A.data != 0.0)
        A.data[A.indices == np.repeat(np.arange(n), np.diff(A.indptr))] += 4.0
        b = rng.standard_normal(n)
        assert np.array_equal(solve_linear(A, b)[0],
                              spla.spsolve(A.tocsc(), b))


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
