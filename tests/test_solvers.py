import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dmpfem import solvers
from dmpfem import stabilization as stab
from dmpfem.bench import make_problem
from dmpfem.mesh import Q1, build_structured
from dmpfem.solvers import (GOLDEN, LS_TOL, _anderson_coefficients,
                            anderson_solve, line_search, newton_solve,
                            project_admissible)
from dmpfem.stabilization import StabParams
from dmpfem.system import (KRYLOV_RTOL, AdmissibleBounds, ResidualSystem,
                           SingularSystemError, solve_linear)
from dmpfem.timeloop import NEWTON, TimeConfig, run_steady, run_transient
from test_jacobian_fingerprint import (CASES, _digest, _rotation_newton_run,
                                       _steady_newton_run)
from test_system import _nearly_singular


def kept(T, keep):
    """What ``residual(u, keep)`` returns: a test system keeps no evaluation
    for its Jacobian."""
    return (T, None) if keep else T


class ScalarPicard:
    """Fixed point of u <- a u + b, as a 1-dof system."""

    def __init__(self, a=0.5, b=1.0):
        self.a, self.b = a, b
        self.bounds = None

    def picard_solve(self, u):
        return self.a * u + self.b, False

    def residual(self, u):
        return self.a * u + self.b - u


class ScalarNewton:
    """Residual T(u) = u^2 - 4."""

    bounds = None

    def residual(self, u, keep=False):
        return kept(np.array([u[0] ** 2 - 4.0]), keep)

    def jacobian(self, u, evaluation=None):
        return sp.csr_matrix(np.array([[2.0 * u[0]]]))


class LinearSystem:
    def __init__(self, A, b):
        self.A, self.b = sp.csr_matrix(A), np.asarray(b, dtype=float)
        self.bounds = None

    def picard_solve(self, u):
        from dmpfem.system import solve_linear
        return solve_linear(self.A, self.b)

    def residual(self, u, keep=False):
        return kept(self.A @ u - self.b, keep)

    def jacobian(self, u, evaluation=None):
        return self.A


def test_project_admissible():
    b = AdmissibleBounds(0.0, 1.0)
    u = np.array([-0.1, 0.5, 1.2])
    out = project_admissible(u, b)
    assert np.allclose(out, [0.0, 0.5, 1.0])
    assert np.allclose(project_admissible(out, b), out)
    v = np.array([0.2, 0.9, 0.4])
    assert np.max(np.abs(project_admissible(u, b) - project_admissible(v, b))) \
        <= np.max(np.abs(u - v)) + 1e-15


def test_bounds_validation():
    with pytest.raises(ValueError):
        AdmissibleBounds(1.0, 0.0)


def test_anderson_coefficients_optimality():
    rng = np.random.default_rng(3)
    for m in (1, 2, 4, 6):
        residuals = [rng.standard_normal(12) for _ in range(m)]
        xi = _anderson_coefficients(residuals)
        assert xi.sum() == pytest.approx(1.0, abs=1e-12)
        # KKT oracle: solve the equality-constrained least squares directly
        R = np.column_stack(residuals)
        kkt = np.block([[R.T @ R, np.ones((m, 1))],
                        [np.ones((1, m)), np.zeros((1, 1))]])
        rhs = np.concatenate([np.zeros(m), [1.0]])
        ref = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m]
        assert np.linalg.norm(R @ xi) == pytest.approx(
            np.linalg.norm(R @ ref), abs=1e-8)


def test_anderson_plain_picard_contraction():
    sys = ScalarPicard(0.5, 1.0)
    u, rep = anderson_solve(sys, np.array([0.0]), m=1, s_min=-np.inf,
                            omega0=1.0, omega_min=1.0, tol=1e-10, k_max=100)
    assert rep.converged
    assert u[0] == pytest.approx(2.0, abs=1e-9)
    # updates halve geometrically once the iterates approach the fixed point
    errs = rep.nlerr_history[10:14]
    for k in range(1, len(errs)):
        assert errs[k] / errs[k - 1] == pytest.approx(0.5, rel=0.02)


def test_anderson_linear_problem_immediate():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    sys = LinearSystem(A, b)
    u, rep = anderson_solve(sys, np.zeros(6), m=3, tol=1e-12, k_max=50)
    assert rep.converged
    assert rep.iterations <= 2
    assert np.allclose(A @ u, b, atol=1e-9)


def test_anderson_projection_clips_iterates():
    sys = ScalarPicard(0.0, 1.2)   # jumps straight to 1.2
    sys.bounds = AdmissibleBounds(0.0, 1.0)
    u, rep = anderson_solve(sys, np.array([0.0]), m=1, tol=1e-14, k_max=10,
                            project=True)
    assert np.all([v[0] == 0.0 for v in rep.dmp_violation_history])
    assert u[0] <= 1.0


def test_anderson_singular_operator_fails_gracefully():
    A = np.zeros((3, 3))
    sys = LinearSystem(A, np.ones(3))
    u, rep = anderson_solve(sys, np.zeros(3), tol=1e-8, k_max=10)
    assert not rep.converged
    assert rep.failure is not None


def test_anderson_stops_at_a_non_finite_iterate():
    class Overflowing(ScalarPicard):
        def picard_solve(self, u):
            return np.full_like(u, np.inf), False

    u, rep = anderson_solve(Overflowing(), np.zeros(2), tol=1e-8, k_max=10)
    assert (rep.converged, rep.iterations) == (False, 1)
    assert rep.failure == "non-finite iterate"
    assert np.all(np.isinf(u))
    assert len(rep.nlerr_history) == 1


def test_anderson_kmax_reached_is_report_not_exception():
    sys = ScalarPicard(0.99, 0.01)   # slow contraction
    u, rep = anderson_solve(sys, np.array([0.0]), m=1, s_min=-np.inf,
                            tol=1e-14, k_max=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.failure is None
    assert len(rep.nlerr_history) == 5
    assert len(rep.omega_or_xi_history) == 5


def test_anderson_validation():
    sys = ScalarPicard()
    with pytest.raises(ValueError):
        anderson_solve(sys, np.zeros(1), m=0)
    with pytest.raises(ValueError):
        anderson_solve(sys, np.zeros(1), omega0=1.5)
    with pytest.raises(ValueError):
        anderson_solve(sys, np.zeros(1), tol=0.0)
    with pytest.raises(ValueError, match="k_max must be positive"):
        anderson_solve(sys, np.zeros(1), k_max=0)
    with pytest.raises(ValueError, match="k_max must be positive"):
        newton_solve(ScalarNewton(), np.array([3.0]), k_max=0)
    with pytest.raises(ValueError):
        anderson_solve(sys, np.zeros(1), project=True)


def test_newton_scalar_quadratic():
    sys = ScalarNewton()
    u, rep = newton_solve(sys, np.array([3.0]), tol=1e-12, k_max=20)
    assert rep.converged
    assert u[0] == pytest.approx(2.0, abs=1e-10)
    assert rep.iterations <= 8
    assert rep.omega_or_xi_history[0] == pytest.approx(1.0, abs=2e-4)
    # superlinear decay of the step sizes until roundoff
    steps = [e for e in rep.nlerr_history if e > 1e-12]
    ratios = [steps[k + 1] / steps[k] for k in range(len(steps) - 1)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_newton_first_iterate_matches_hand_value():
    sys = ScalarNewton()
    u, rep = newton_solve(sys, np.array([3.0]), tol=1e-30, k_max=1)
    assert u[0] == pytest.approx(13.0 / 6.0, abs=1e-3)


def test_newton_linear_single_iteration():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal(5)
    sys = LinearSystem(A, b)
    u, rep = newton_solve(sys, np.zeros(5), tol=1e-10, k_max=10)
    assert rep.converged
    assert rep.omega_or_xi_history[0] == 1.0
    assert np.allclose(A @ u, b, atol=1e-9)
    assert rep.iterations <= 2


def test_newton_singular_jacobian_fails_gracefully():
    class Singular:
        bounds = None

        def residual(self, u, keep=False):
            return kept(np.array([1.0]), keep)

        def jacobian(self, u, evaluation=None):
            return sp.csr_matrix(np.zeros((1, 1)))

    u, rep = newton_solve(Singular(), np.zeros(1), tol=1e-8, k_max=5)
    assert not rep.converged
    assert "singular" in rep.failure


def test_newton_reports_a_singular_jacobian_from_its_factorization():
    class RankOne:
        # J = [[1, 1], [1, 1]]: the second pivot of its LU is exactly zero
        bounds = None

        def residual(self, u, keep=False):
            return kept(np.array([1.0, 2.0]), keep)

        def jacobian(self, u, evaluation=None):
            return sp.csr_matrix(np.ones((2, 2)))

    u, rep = newton_solve(RankOne(), np.zeros(2), tol=1e-8, k_max=5)
    assert (rep.converged, rep.iterations) == (False, 0)
    # SuperLU's message from splu; spsolve would say "Matrix is ..."
    assert rep.failure == "singular Jacobian: Factor is exactly singular"


def test_newton_names_a_numerically_singular_jacobian():
    # SuperLU factorizes this J without complaint; the residual of its x
    # names the failure, where the line search used to stall on the step
    A, b = _nearly_singular(20, 1e-16)
    u, rep = newton_solve(LinearSystem(A.toarray(), b), np.zeros(20),
                          tol=1e-8, k_max=5)
    assert (rep.converged, rep.iterations) == (False, 0)
    assert rep.failure.startswith("singular Jacobian: relative residual")


def test_newton_nonfinite_residual_fails_gracefully():
    class Bad:
        bounds = None

        def residual(self, u, keep=False):
            return kept(np.array([np.nan]), keep)

        def jacobian(self, u, evaluation=None):
            return sp.csr_matrix(np.eye(1))

    u, rep = newton_solve(Bad(), np.zeros(1), tol=1e-8, k_max=5)
    assert not rep.converged
    assert rep.failure == "non-finite residual"


# ----------------------------------------------------------------------
# line search
# ----------------------------------------------------------------------

class PhiSystem:
    """Residual whose norm is sqrt((xi - c)^2 + 1) along u = xi * e."""

    def __init__(self, c):
        self.c = c

    def residual(self, u, keep=False):
        return kept(np.array([u[0] - self.c, 1.0]), keep)


def test_line_search_interior_minimum():
    sys = PhiSystem(0.3)
    xi, _, _ = line_search(sys, np.zeros(1), np.ones(1))
    assert xi == pytest.approx(0.3, abs=1e-4)


def test_line_search_decreasing_profile_returns_one():
    sys = PhiSystem(2.0)   # minimum beyond the interval
    xi, _, _ = line_search(sys, np.zeros(1), np.ones(1))
    assert xi == 1.0


def test_line_search_exact_newton_step():
    sys = PhiSystem(1.0)
    xi, _, _ = line_search(sys, np.zeros(1), np.ones(1))
    assert xi == 1.0


def _golden_section_reference(sys, u, du, ls_tol=LS_TOL):
    """The golden-section search as it was before the full-step check:
    every call runs the search, and the best evaluated point wins."""
    evals = {}

    def phi(xi):
        if xi not in evals:
            evals[xi] = float(np.linalg.norm(sys.residual(u + xi * du)))
        return evals[xi]

    phi(0.0)
    phi(1.0)
    a, b = 0.0, 1.0
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    while b - a > ls_tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = phi(x2)
    return min(evals, key=evals.get)


class WavySystem:
    """Residual norm 2 + sin(w xi + theta) along u = xi * e: several local
    minima in [0, 1] for large w."""

    def __init__(self, w, theta):
        self.w, self.theta = w, theta

    def residual(self, u, keep=False):
        return kept(np.array([2.0 + np.sin(self.w * u[0] + self.theta)]), keep)


def _profiles():
    rng = np.random.default_rng(7)
    interior = [("interior", PhiSystem(c), True)
                for c in rng.uniform(0.0, 1.0 - 1e-3, 8)]
    decreasing = [("decreasing", PhiSystem(c), True)
                  for c in rng.uniform(1.0, 3.0, 4)]
    wavy = [("non-unimodal", WavySystem(w, t), False)
            for w, t in zip(rng.uniform(8.0, 40.0, 8),
                            rng.uniform(0.0, 2 * np.pi, 8))]
    return interior + decreasing + wavy + [
        # the minimizer is the probe point, which golden section does not
        # sample here: it must not be returned
        ("minimum at 1 - ls_tol", PhiSystem(1.0 - 1e-4), True),
        ("phi(1) == phi(0)", PhiSystem(0.5), True),
        ("constant", WavySystem(0.0, 0.3), True),
    ]


@pytest.mark.parametrize("label, sys, unimodal", _profiles())
def test_line_search_is_golden_section_unless_full_step_accepted(
        label, sys, unimodal):
    ls_tol = LS_TOL
    u, du = np.zeros(1), np.ones(1)

    def phi(xi):
        return float(np.linalg.norm(sys.residual(u + xi * du)))

    xi, T, _ = line_search(sys, u, du)
    ref = _golden_section_reference(sys, u, du, ls_tol)
    accept = phi(1.0) < phi(0.0) and (phi(1.0) <= ls_tol * phi(0.0)
                                      or phi(1.0) <= phi(1.0 - ls_tol))
    assert xi == (1.0 if accept else ref)
    assert np.array_equal(T, sys.residual(u + xi * du))
    if unimodal:
        assert abs(xi - ref) < ls_tol


class CountingSystem:
    """Counts residual evaluations of the wrapped system."""

    def __init__(self, inner):
        self.inner, self.calls, self.jacobian_points = inner, 0, []
        self.bounds = getattr(inner, "bounds", None)

    def residual(self, u, keep=False):
        self.calls += 1
        return self.inner.residual(u, keep)

    def jacobian(self, u, evaluation=None):
        self.jacobian_points.append(np.array(u, copy=True))
        return self.inner.jacobian(u, evaluation)


class RootSystem:
    """Residual whose norm is |xi - c| along u = xi * e."""

    def __init__(self, c):
        self.c = c

    def residual(self, u, keep=False):
        return kept(np.array([u[0] - self.c]), keep)


def test_line_search_takes_a_decisive_full_step_without_the_probe():
    # phi(1) = 0.6 ls_tol <= ls_tol phi(0), although the probe point, at
    # 0.4 ls_tol, lies nearer the root: xi = 1 for one residual, where a
    # full step that the probe accepts costs two
    ls_tol, u, du = LS_TOL, np.zeros(1), np.ones(1)
    for inner, calls in ((RootSystem(1.0 - 0.6 * ls_tol), 1),
                         (PhiSystem(2.0), 2)):
        sys = CountingSystem(inner)
        xi, T, _ = line_search(sys, u, du, T0=inner.residual(u))
        assert (xi, sys.calls) == (1.0, calls)
        assert np.array_equal(T, inner.residual(u + du))
    root = RootSystem(1.0 - 0.6 * ls_tol)
    assert abs(root.residual(u + (1.0 - ls_tol) * du)[0]) < \
        abs(root.residual(u + du)[0])


def test_line_search_uses_the_given_residual_at_zero():
    u, du = np.zeros(1), -np.ones(1)    # the profile only grows along -e
    sys = CountingSystem(PhiSystem(0.5))
    T0 = sys.inner.residual(u)
    xi, T, _ = line_search(sys, u, du, T0=T0)
    assert xi == 0.0 and T is T0
    ref = CountingSystem(PhiSystem(0.5))
    assert _golden_section_reference(ref, u, du) == 0.0
    assert sys.calls == ref.calls - 1


class CubicSystem:
    """T(u) = A u + u^3 - b, with its exact Jacobian."""

    bounds = None

    def __init__(self, n=6, seed=2):
        rng = np.random.default_rng(seed)
        self.A = rng.standard_normal((n, n)) + n * np.eye(n)
        self.b = rng.standard_normal(n)

    def residual(self, u, keep=False):
        return kept(self.A @ u + u ** 3 - self.b, keep)

    def jacobian(self, u, evaluation=None):
        return sp.csr_matrix(self.A + np.diag(3.0 * u ** 2))


CUBIC = CubicSystem()


@pytest.mark.parametrize("inner, u0", [
    (ScalarNewton(), np.array([3.0])),
    (CUBIC, np.linalg.solve(CUBIC.A, CUBIC.b))])
def test_exact_newton_costs_at_most_three_residuals_per_iteration(inner, u0):
    sys = CountingSystem(inner)
    u, rep = newton_solve(sys, u0, tol=1e-10, k_max=20)
    assert rep.converged
    assert all(xi == 1.0 for xi in rep.omega_or_xi_history)
    assert sys.calls <= 3 * rep.iterations
    # the residual of the last accepted point is reused, not recomputed
    assert rep.residual_norm == np.linalg.norm(inner.residual(u))


@pytest.mark.parametrize("project", [False, True])
def test_newton_solves_with_the_residual_of_the_current_iterate(project,
                                                                monkeypatch):
    # from u = 3 the first Newton step lands on 13/6; the bound 2.1 clips it,
    # so T must be evaluated afresh at the projected iterate
    sys = CountingSystem(ScalarNewton())
    sys.bounds = AdmissibleBounds(0.0, 2.1)
    rhs = []
    monkeypatch.setattr(solvers, "solve_linear",
                        lambda A, b, **kw: rhs.append(b)
                        or solve_linear(A, b, **kw))
    u, rep = newton_solve(sys, np.array([3.0]), tol=1e-10, k_max=30,
                          project=project)
    assert rep.converged
    assert len(sys.jacobian_points) == len(rhs) == rep.iterations
    for u_k, b in zip(sys.jacobian_points, rhs):
        assert np.array_equal(b, -sys.inner.residual(u_k))
    assert (sys.jacobian_points[1][0] == 2.1) == project
    assert rep.residual_norm == np.linalg.norm(sys.inner.residual(u))
    assert rep.residual_history == [np.linalg.norm(b) for b in rhs]


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("name", sorted(CASES))
def test_newton_builds_each_jacobian_from_its_residual_evaluation(
        name, project, monkeypatch):
    # every J(u_k) starts from the evaluation behind T(u_k): the line
    # search's accepted point, or a fresh residual after projection moved it
    sys, u0 = CASES[name]()
    seen = []
    jacobian = ResidualSystem.jacobian

    def recording(self, u, evaluation=None):
        seen.append((np.array(u, copy=True), evaluation))
        return jacobian(self, u, evaluation)
    monkeypatch.setattr(ResidualSystem, "jacobian", recording)
    u, rep = newton_solve(sys, u0, tol=1e-10, k_max=4, project=project)
    assert len(seen) == rep.iterations > 0
    for u_k, (A_k, detector) in seen:
        A, _ = sys.assemble_operator(u_k)
        assert A_k.data.tobytes() == A.data.tobytes()
        state = stab.detector_values(sys.mesh, u_k, sys.params, state=True)[1]
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(detector[1:], state[1:]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_line_search_keeps_the_evaluation_of_its_best_point(name):
    sys, u = CASES[name]()
    du = -u
    xi, T, (A_kept, _) = line_search(sys, u, du)
    assert T.tobytes() == sys.residual(u + xi * du).tobytes()
    A, _ = sys.assemble_operator(u + xi * du)
    assert A_kept.data.tobytes() == A.data.tobytes()
    # the residual handed in for xi = 0 comes without an evaluation
    T0 = sys.residual(u)
    xi, T, evaluation = line_search(sys, u, np.zeros_like(u), T0=T0)
    assert (xi, evaluation) == (0.0, None) and T is T0


@pytest.mark.parametrize("reports", [
    lambda: [_steady_newton_run()[1]],
    lambda: _rotation_newton_run().reports], ids=["steady", "transient"])
def test_newton_runs_call_solve_linear_once_per_iteration(reports,
                                                          monkeypatch):
    # the benchmark's traced runs reconcile system.linear_solves against the
    # iteration count; the GMRES cycle and its fallback live in one call
    calls = []
    monkeypatch.setattr(solvers, "solve_linear",
                        lambda A, b, **kw: calls.append(1)
                        or solve_linear(A, b, **kw))
    reports = reports()
    assert all(r.converged for r in reports)
    assert len(calls) == sum(r.iterations for r in reports) > 0


@pytest.mark.parametrize("reports", [
    lambda: [_steady_newton_run()[1]],
    lambda: _rotation_newton_run().reports], ids=["steady", "transient"])
def test_newton_solves_each_jacobian_to_its_forcing_term(reports,
                                                         monkeypatch):
    # eta_k = min(cap, ||T_k|| / ||T_0||), never below the Picard 1e-12
    rtols = []
    monkeypatch.setattr(solvers, "solve_linear",
                        lambda A, b, **kw: rtols.append(kw["rtol"])
                        or solve_linear(A, b, **kw))
    reports = reports()
    assert all(len(r.residual_history) == r.iterations for r in reports)
    assert rtols == [max(1e-12, min(1e-2, r / rep.residual_history[0]))
                     for rep in reports for r in rep.residual_history]
    assert rtols[0] == 1e-2 and min(rtols) < 1e-4


def _projected_rotation_run():
    # the rotation_newton benchmark's stabilization and solver on Q1 24^2,
    # three steps
    problem = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(24, 24, domain=problem.domain, kind=Q1)
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=3e-3, solver=NEWTON,
                     projection=True, tol=1e-8)
    return run_transient(mesh, problem, cfg)


@pytest.mark.parametrize("run", [_rotation_newton_run,
                                 _projected_rotation_run],
                         ids=["unprojected_16", "projected_24"])
def test_forcing_term_moves_the_iterates_not_the_solution(run, monkeypatch):
    result = run()
    monkeypatch.setattr(solvers, "FORCING_CAP", KRYLOV_RTOL)
    pinned = run()
    diff = np.max(np.abs(result.u - pinned.u)) / np.max(np.abs(pinned.u))
    print(f"\nNewton iterations with the forcing term "
          f"{[r.iterations for r in result.reports]}, every J to 1e-12 "
          f"{[r.iterations for r in pinned.reports]}; fields {diff:.1e} apart")
    assert all(r.converged for r in result.reports + pinned.reports)
    assert diff <= 1e-12


@pytest.mark.parametrize("solve", [anderson_solve, newton_solve])
def test_reports_count_the_solves_that_fell_back_to_a_factorization(solve):
    # n <= 60: the GMRES cycle is skipped and every solve is factorized
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    _, rep = solve(LinearSystem(A, rng.standard_normal(6)), np.zeros(6),
                   tol=1e-12, k_max=10)
    assert rep.converged and rep.factorizations == rep.iterations > 0


def test_report_history_lengths_match_iterations():
    sys = ScalarPicard(0.9, 0.1)
    _, rep = anderson_solve(sys, np.array([0.0]), m=2, s_min=-np.inf,
                            tol=1e-3, k_max=50)
    for hist in (rep.nlerr_history, rep.dmp_violation_history,
                 rep.omega_or_xi_history):
        assert len(hist) == rep.iterations

    assert rep.residual_history == []    # Newton's only

    _, rep = newton_solve(ScalarNewton(), np.array([3.0]), tol=1e-10, k_max=20)
    for hist in (rep.nlerr_history, rep.dmp_violation_history,
                 rep.omega_or_xi_history, rep.residual_history):
        assert len(hist) == rep.iterations


# ----------------------------------------------------------------------
# the projected Newton path and the shared iteration loop
# ----------------------------------------------------------------------

def _projected_steady_newton_run(n):
    # the steady_newton benchmark's stabilization and solver on Q1 n^2
    problem = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(n, n, domain=problem.domain, kind=Q1)
    beta, eps = problem.velocity.beta_bound, 1e-4
    params = StabParams(q=25.0, eps=eps, sigma=beta * eps * eps * 1e-5,
                        gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver=NEWTON,
                     projection=True, tol=1e-6)
    return run_steady(mesh, problem, cfg)


@pytest.mark.parametrize("n, iterations, failure, digests", [
    (48, 19, None, {"u": "24fef025965f3723", "nlerr": "b7854361d67576f6",
                    "dmp": "84fadcb9896516e1", "xi": "c23b17d9f2393c2f"}),
    (32, 8, "line search stalled",
     {"u": "2a8f8f3795b851da", "nlerr": "8c72c3daab62cf21",
      "dmp": "27e13d844825d8e3", "xi": "fd04cc7656297002"}),
], ids=["q1_48_converges", "q1_32_stalls"])
def test_projected_newton_run_is_bit_identical(n, iterations, failure,
                                               digests, monkeypatch):
    # the fingerprint Newton runs are unprojected; these pin the path on
    # which projection moves the iterate and the residual is taken afresh
    moved = []

    def project(u, bounds):
        out = project_admissible(u, bounds)
        moved.append(not np.array_equal(out, u))
        return out

    monkeypatch.setattr(solvers, "project_admissible", project)
    u, rep = _projected_steady_newton_run(n)
    assert (rep.iterations, rep.converged, rep.failure) == (
        iterations, failure is None, failure)
    assert len(moved) == iterations and any(moved)
    assert {"u": _digest(u),
            "nlerr": _digest(np.asarray(rep.nlerr_history)),
            "dmp": _digest(np.asarray(rep.dmp_violation_history)),
            "xi": _digest(np.asarray(rep.omega_or_xi_history))} == digests


def test_solvers_share_one_iteration_loop():
    # Newton and Anderson differ only in their step; a second loop over
    # range(.. k_max ..) would be a second copy of the stop tests and report
    tree = ast.parse(Path(solvers.__file__).read_text())
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call)
             and isinstance(node.iter.func, ast.Name)
             and node.iter.func.id == "range"
             and any(isinstance(name, ast.Name) and name.id == "k_max"
                     for name in ast.walk(node.iter))]
    assert len(loops) == 1
