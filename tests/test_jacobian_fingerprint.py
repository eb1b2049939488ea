"""Jacobian and solve-path fingerprints: sha256 digests of the exact
Jacobian J(u) (CSR ``data``, ``indices`` and ``indptr``), of the residual
T(u), of the detector derivative d alpha (the same three arrays, also on a
state with plateaus, where rows of d alpha are empty), of one Picard sweep
and of one line search for four small systems, and of the final fields of
three small end-to-end solves, with the Newton step lengths of one.

Newton's iterates depend on every bit of J and T, so a refactor of the
viscosity, the detector derivative or the Jacobian assembly must leave them
bit-identical.  The J and T digests were taken before the residual and the
Jacobian shared one edge-viscosity kernel, from the inline re-derivation it
replaced; the Picard and end-to-end digests before A(u) was assembled on
pattern data; the line-search and transient Newton digests before the line
search checked the full step first.  The Picard sweep and Burgers-run
digests pin the Jacobi-preconditioned GMRES solve that now takes A(u)
first; each has a reference run with every A(u) factorized, which must
reproduce the pin from before that change.  The factorized sweep also
depends on the sparsity structure that SuperLU orders: a stored zero
changes the column ordering and so the last bits of the solution.  The
steady Newton-run digest pins the symmetric-mode factorization of J on the
mesh's nested-dissection ordering, the transient one the GMRES solve that
takes the transient J first.  Each has a reference run with the former
solve of J (symmetric mode, minimum degree on J^T + J made per
factorization) monkeypatched in, and the transient one a second with the
nested-dissection factorization alone; a Newton reference run must
reproduce the old digest, the iterations and the step lengths, and stay
within 1e-12 of the new field.  The transient run digests pin each step
after the first starting its solver from the extrapolation 2u^n - u^(n-1);
each run and each reference run also marches with every step started from
u^n, as before that change, and must reproduce the pin from before it.
The transient Newton runs and all their references solve every J to
1e-12, with ``solvers.FORCING_CAP`` set to it, as before Newton solved each
J only to its forcing term; a separate test pins the run with the forcing
term, which takes one more iteration per step to a field within 1e-15.  The
steady Newton run is pinned with the forcing term: every steady J still
falls back to the factorization.  The J digests and the Newton-run digests
pin J assembled on per-mesh structures (one sparse product, one sum); its
data moved in the last bits.  They also pin J as canonical CSR, each row's
columns sorted: the entries kept their values bit for bit, but the J
digests and the transient Newton-run digest, whose GMRES sums each row of
J @ x in stored order, moved.  The former assembly, kept in
``former_jacobian``, must reproduce the pins from before both changes, its
own row order included; with its rows sorted it must give the same
``indptr`` and ``indices`` and agree to 1e-13 on the data.  Every Newton
reference run above uses it.  Two J.data digests moved once more when J
started from A(u)'s own data, as the residual assembles it: under the
symmetric mass B's diagonal became the residual's rowsum(nu_F) +
rowsum(nu_M / dt) where it had been the row sum of nu_F + nu_M / dt
(``transient_symmetric_mass_q1``, 237a55d85896b556 -> d43fb52abc9d7437),
and for a nonlinear flux F' and the flux term are added after M/dt + (F +
B) (``burgers_p1``, 68c81a2dfff4b401 -> 28503ca3949a0006).  For a linear
flux J kept its bits: F's data holds no -0.0, and the all-zero F' is no
longer added.  The digests pin the floating-point results of this
numpy/scipy build and of the CPU it dispatches to: a different libm may
move the last bit of ``pow``, and so does this build's own AVX-512
``power`` loop, which rounds x**q differently from its other loops: with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` on an AVX-512
CPU, 24 of this module's 35 tests fail.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dmpfem import solvers, system
from dmpfem import stabilization as stab
from dmpfem.bench import make_problem
from dmpfem.mesh import P1, Q1, build_structured
from dmpfem.solvers import line_search
from dmpfem.stabilization import StabParams
from dmpfem.system import ResidualSystem
from dmpfem.timeloop import (ANDERSON, NEWTON, TimeConfig, admissible_bounds,
                             dirichlet_bc, run_steady, run_transient)
from former_jacobian import former_jacobian
from helpers import march_from_previous_state


def _system(problem_name, n, kind, dt, mass):
    problem = make_problem(problem_name)
    mesh = build_structured(n, n, domain=problem.domain, kind=kind)
    params = StabParams(q=3.0, eps=1e-2, sigma=1e-3, gamma=1e-6,
                        detector=stab.SMOOTH, mass=mass,
                        beta_bound=problem.velocity.beta_bound)
    rng = np.random.default_rng(n)
    u_old = None if dt is None else rng.uniform(-1.0, 1.0, mesh.n_nodes)
    sys = ResidualSystem(mesh, problem.velocity, params,
                         dirichlet=dirichlet_bc(mesh, problem, 0.0), dt=dt,
                         u_old=u_old,
                         bounds=admissible_bounds(mesh, problem, dt is None))
    return sys, rng.uniform(-1.0, 1.0, mesh.n_nodes)


CASES = {
    "steady_linear_q1": lambda: _system("STRAIGHT_DISCONTINUITY", 8, Q1, None,
                                        stab.GRADUAL_LUMPING),
    "transient_gradual_q1": lambda: _system("THREE_BODY_ROTATION", 8, Q1, 1e-2,
                                            stab.GRADUAL_LUMPING),
    "transient_symmetric_mass_q1": lambda: _system(
        "THREE_BODY_ROTATION", 8, Q1, 1e-2, stab.SYMMETRIC_MASS),
    "burgers_p1": lambda: _system("BURGERS2D", 8, P1, 2e-2,
                                  stab.GRADUAL_LUMPING),
}


def _digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def fingerprint(sys, u):
    J = sys.jacobian(u)
    return {"J.data": _digest(J.data), "J.indices": _digest(J.indices),
            "J.indptr": _digest(J.indptr), "T": _digest(sys.residual(u))}


EXPECTED = {'burgers_p1': {'J.data': '28503ca3949a0006',
                           'J.indices': 'ef80c82e7b4db6b8',
                           'J.indptr': '2a667069890b38bb',
                           'T': 'e920a319f8bfb80c'},
            'steady_linear_q1': {'J.data': 'fdded26ed2885495',
                                 'J.indices': '725a02cb032b2ac3',
                                 'J.indptr': '5bb14efb8e83732a',
                                 'T': '96ffab583aaee2f3'},
            'transient_gradual_q1': {'J.data': '66da4a0dec005582',
                                     'J.indices': '4ff43f127956cc14',
                                     'J.indptr': 'd473fcdf3fd054e3',
                                     'T': '17b2668cde1df658'},
            'transient_symmetric_mass_q1': {'J.data': 'd43fb52abc9d7437',
                                            'J.indices': '304c49a669f3d443',
                                            'J.indptr': '8a954f05dc6c65a0',
                                            'T': '25077f42653399cf'}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_jacobian_and_residual_are_bit_identical(name):
    assert fingerprint(*CASES[name]()) == EXPECTED[name]


def _ramp(mesh):
    """A ramp across the domain clipped to plateaus, where the limiter is
    flat and rows of d alpha are empty."""
    x = mesh.coords[:, 0]
    return np.clip(3.0 * (x - x.min()) / np.ptp(x) - 1.0, 0.0, 1.0)


def dalpha_fingerprint(sys, u):
    state = stab.detector_values(sys.mesh, u, sys.params, state=True)[1]
    dalpha = stab.detector_derivative(sys.mesh, u, sys.params, state)[1]
    return {"data": _digest(dalpha.data), "indices": _digest(dalpha.indices),
            "indptr": _digest(dalpha.indptr)}


# d alpha at each case's state, then on the clipped ramp; taken before
# d alpha was built from scipy's sparse products
DALPHA = {
    'burgers_p1': [{'data': '034e0134ce4fedc0', 'indices': 'a83d46d53b5f7b7a',
                    'indptr': '4b99d0a64cf864fb'},
                   {'data': '67a79041b0838a63', 'indices': '46cedd837fe6521d',
                    'indptr': '90f3bd5409122d0e'}],
    'steady_linear_q1': [{'data': '79b177fd5e3978c2',
                          'indices': '3597d1ae971c6de1',
                          'indptr': '9fb14df7a4560b71'},
                         {'data': 'c472377b1d99efa8',
                          'indices': '5b4889e545f6294c',
                          'indptr': 'ae6c611a225fe48c'}],
    'transient_gradual_q1': [{'data': 'dbe2c389fc168740',
                              'indices': '0de476c1e0a93521',
                              'indptr': 'ae19479312c4e4bb'},
                             {'data': 'c472377b1d99efa8',
                              'indices': '5b4889e545f6294c',
                              'indptr': 'ae6c611a225fe48c'}],
    'transient_symmetric_mass_q1': [{'data': 'dbe2c389fc168740',
                                     'indices': '0de476c1e0a93521',
                                     'indptr': 'ae19479312c4e4bb'},
                                    {'data': 'c472377b1d99efa8',
                                     'indices': '5b4889e545f6294c',
                                     'indptr': 'ae6c611a225fe48c'}]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_detector_derivative_is_bit_identical(name):
    sys, u = CASES[name]()
    assert [dalpha_fingerprint(sys, u),
            dalpha_fingerprint(sys, _ramp(sys.mesh))] == DALPHA[name]


# J.data pins before J moved onto per-mesh structures, and J.indices pins
# before J's rows were sorted: the former assembly's row order
FORMER_J = {'burgers_p1': {'J.data': '0e0835a7381df65c',
                           'J.indices': '7bc76883de4a1563'},
            'steady_linear_q1': {'J.data': '0de1880d5769aa66',
                                 'J.indices': 'c70db806a90a8972'},
            'transient_gradual_q1': {'J.data': 'e513235f085a613c',
                                     'J.indices': '30450712ffa396fd'},
            'transient_symmetric_mass_q1': {'J.data': 'c75a2817ce1e01fe',
                                            'J.indices': '59a2e79c478bb675'}}


def assert_same_jacobian(J, ref):
    """Same stored structure as ``ref`` with its rows sorted; data to
    1e-13."""
    ref = ref.sorted_indices()
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.max(np.abs(J.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data))


@pytest.mark.parametrize("name", sorted(CASES))
def test_jacobian_matches_the_former_assembly(name):
    sys, u = CASES[name]()
    ref = former_jacobian(sys, u)
    assert {"J.data": _digest(ref.data), "J.indices": _digest(ref.indices),
            "J.indptr": _digest(ref.indptr)} == \
        {**FORMER_J[name], "J.indptr": EXPECTED[name]["J.indptr"]}
    assert_same_jacobian(sys.jacobian(u), ref)


PICARD = {'burgers_p1': '7151269b4932a0c4',
          'steady_linear_q1': '2cbf728a0ec605d0',
          'transient_gradual_q1': 'f2b07c16a1bc40e4',
          'transient_symmetric_mass_q1': '9c2b7a5c8f35ffd2'}

# the pins before GMRES took A(u), reproduced by the factorization alone
PICARD_DIRECT = {'burgers_p1': '418c6583dda608da',
                 'steady_linear_q1': '986f62b41bfbe3fc',
                 'transient_gradual_q1': '3fb43cf727c901ed',
                 'transient_symmetric_mass_q1': '7fad4e9254bafd0e'}


def _without_krylov(monkeypatch):
    """Every matrix factorized, no GMRES cycle, as before it was tried."""
    monkeypatch.setattr(system, "_jacobi_gmres", lambda A, b, rtol: None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_picard_sweep_is_bit_identical(name):
    sys, u = CASES[name]()
    u_next, factorized = sys.picard_solve(u)
    assert not factorized
    assert _digest(u_next) == PICARD[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_picard_sweep_matches_the_direct_reference(name, monkeypatch):
    sys, u = CASES[name]()
    u_next, _ = sys.picard_solve(u)
    _without_krylov(monkeypatch)
    ref, factorized = sys.picard_solve(u)
    assert factorized
    assert _digest(ref) == PICARD_DIRECT[name]
    assert np.linalg.norm(u_next - ref) <= 1e-10 * np.linalg.norm(ref)


# (xi, T digest) of one line search per case, see below
LINE_SEARCH = {'burgers_p1': (0.9998930366896397, '9a673a3baf320dfe'),
               'steady_linear_q1': (0.9998930366896397, 'b2e79fd71ecab892'),
               'transient_gradual_q1': (0.9998930366896397, '52ce6c251ac25139'),
               'transient_symmetric_mass_q1': (0.9998930366896397,
                                               'd44a5f2c2d68c048')}


@pytest.mark.parametrize("name", sorted(CASES))
def test_line_search_next_to_the_probe_is_bit_identical(name):
    # u* is a root of T(u) - T(u*); from 1e-6 off it, the profile along du
    # has its minimum at the full-step probe point 1 - ls_tol.  The full
    # step is rejected, and golden section must pick its own best point: the
    # probe is not one of them.
    system, u_star = CASES[name]()
    shift = system.residual(u_star)

    class Shifted:
        def residual(self, v, keep=False):
            T = system.residual(v) - shift
            return (T, None) if keep else T

    u = u_star + 1e-6 * np.random.default_rng(1).standard_normal(u_star.size)
    du = (u_star - u) / (1.0 - 1e-4)
    xi, T, _ = line_search(Shifted(), u, du, ls_tol=1e-4)
    assert np.array_equal(T, Shifted().residual(u + xi * du))
    assert (xi, _digest(T)) == LINE_SEARCH[name]


def _steady_newton_run():
    # the steady_newton benchmark's parameters on Q1 16^2, unprojected: with
    # projection this grid stalls at the outflow boundary for k_max steps
    problem = make_problem("STRAIGHT_DISCONTINUITY")
    mesh = build_structured(16, 16, domain=problem.domain, kind=Q1)
    beta, eps = problem.velocity.beta_bound, 1e-4
    params = StabParams(q=25.0, eps=eps, sigma=beta * eps * eps * 1e-5,
                        gamma=1e-10, detector=stab.SMOOTH, beta_bound=beta)
    cfg = TimeConfig(stab=params, steady=True, solver=NEWTON,
                     projection=False, tol=1e-6)
    return run_steady(mesh, problem, cfg)


def _with_former_jacobian(monkeypatch):
    """J assembled the former way, by a chain of sparse products and sums."""
    monkeypatch.setattr(ResidualSystem, "jacobian", former_jacobian)


def _with_mmd_jacobian_solve(monkeypatch):
    """Newton's J solved in symmetric mode on a minimum-degree ordering of
    J^T + J made per factorization, as before the nested-dissection
    ordering."""
    def solve(A, b, order=None, rtol=None):
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.01,
                         options=dict(SymmetricMode=True)).solve(b), True
    monkeypatch.setattr(solvers, "solve_linear", solve)


def _assert_close_to_reference(u, reports, u_ref, refs, step_lengths=True):
    # same iterations and, unless told otherwise, step lengths; the fields
    # differ in the last bits
    assert [r.iterations for r in reports] == [r.iterations for r in refs]
    if step_lengths:
        assert [r.omega_or_xi_history for r in reports] == \
            [r.omega_or_xi_history for r in refs]
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))


def test_steady_newton_solve_is_bit_identical():
    u, report = _steady_newton_run()
    assert (report.converged, report.iterations) == (True, 14)
    assert _digest(u) == "410862fcf6e7aacc"


def test_steady_newton_solve_matches_the_former_jacobian(monkeypatch):
    u, report = _steady_newton_run()
    _with_former_jacobian(monkeypatch)
    u_ref, ref = _steady_newton_run()
    assert _digest(u_ref) == "ec023be52f5310b8"   # the pin before the change
    _assert_close_to_reference(u, [report], u_ref, [ref])


def test_steady_newton_solve_matches_the_mmd_reference(monkeypatch):
    u, report = _steady_newton_run()
    _with_former_jacobian(monkeypatch)
    _with_mmd_jacobian_solve(monkeypatch)
    u_ref, ref = _steady_newton_run()
    assert _digest(u_ref) == "ff736873be74d1b3"   # the pin before the change
    _assert_close_to_reference(u, [report], u_ref, [ref])


def _burgers_anderson_run(march=run_transient):
    # the burgers_p1_anderson benchmark's parameters on structured P1 12^2,
    # three steps
    problem = make_problem("BURGERS2D")
    mesh = build_structured(12, 12, domain=problem.domain, kind=P1)
    params = StabParams(q=1.0, eps=1e-3, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-2, t_end=3e-2, solver=ANDERSON,
                     projection=True, tol=1e-5, k_max=300)
    return march(mesh, problem, cfg)


def test_burgers_anderson_run_is_bit_identical():
    result = _burgers_anderson_run()
    assert [r.iterations for r in result.reports] == [4, 3, 3]
    assert [r.factorizations for r in result.reports] == [0, 0, 0]
    assert _digest(result.u) == "2472c72c51445c92"


def test_burgers_anderson_run_matches_the_previous_state_start():
    result = _burgers_anderson_run()
    ref = _burgers_anderson_run(march_from_previous_state)
    # the pin from before the extrapolated start
    assert _digest(ref.u) == "963fc492627db507"
    assert [r.iterations for r in ref.reports] == [4, 4, 5]
    # Anderson stops on the step, so the fields differ by more than the
    # solver tolerance: compare the iterations and the benchmark's range gate
    assert all(r.iterations <= r_ref.iterations
               for r, r_ref in zip(result.reports, ref.reports))
    assert -1.0 <= np.min(result.u) and np.max(result.u) <= 0.8


def test_burgers_anderson_run_matches_the_direct_reference(monkeypatch):
    runs = _burgers_anderson_run(), \
        _burgers_anderson_run(march_from_previous_state)
    _without_krylov(monkeypatch)
    refs = _burgers_anderson_run(), \
        _burgers_anderson_run(march_from_previous_state)
    # the second, from u^n, is the pin from before GMRES took A(u)
    assert [_digest(ref.u) for ref in refs] == \
        ["d772bfbd20c8a095", "282a3952f0c98700"]
    assert [[r.factorizations for r in ref.reports] for ref in refs] == \
        [[4, 3, 3], [4, 4, 5]]
    # Anderson's field follows the last bits of each sweep, so the runs are
    # compared by their iterations and the benchmark's range and LED gates
    for run, ref in zip(runs, refs):
        assert [r.iterations for r in run.reports] == \
            [r.iterations for r in ref.reports]
    for run in (runs[0], refs[0]):
        assert -1.0 <= np.min(run.u) and np.max(run.u) <= 0.8
        assert np.all(np.diff(run.max_series) <= 1e-10)
        assert np.all(np.diff(run.min_series) >= -1e-10)


def _with_exact_newton_solves(monkeypatch):
    """Every Newton linear solve to 1e-12, as before the forcing term."""
    monkeypatch.setattr(solvers, "FORCING_CAP", system.KRYLOV_RTOL)


def _rotation_newton_run(march=run_transient):
    # the rotation_newton benchmark's stabilization on Q1 16^2, three steps,
    # unprojected: with projection this grid stalls at step 1 (see
    # _steady_newton_run)
    problem = make_problem("THREE_BODY_ROTATION")
    mesh = build_structured(16, 16, domain=problem.domain, kind=Q1)
    params = StabParams(q=25.0, eps=1e-4, sigma=1e-12, gamma=1e-8,
                        detector=stab.SMOOTH, mass=stab.GRADUAL_LUMPING,
                        beta_bound=problem.velocity.beta_bound)
    cfg = TimeConfig(stab=params, dt=1e-3, t_end=3e-3, solver=NEWTON,
                     projection=False, tol=1e-8)
    return march(mesh, problem, cfg)


def test_rotation_newton_run_with_the_forcing_term_is_bit_identical():
    # each J solved to min(1e-2, ||T_k|| / ||T_0||): one more iteration per
    # step, within 1e-15 of the run with every J solved to 1e-12
    result = _rotation_newton_run()
    assert [r.iterations for r in result.reports] == [4, 4, 4]
    assert [r.omega_or_xi_history for r in result.reports] == [
        [0.9998269297282878, 0.9999338930386481, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
    assert _digest(result.u) == "abf6b0b828a12cf0"


def test_rotation_newton_run_is_bit_identical(monkeypatch):
    # The first line search ends just short of the full step, at
    # 1 - 1.7 ls_tol, so a full-step check that accepted a mere decrease
    # would move the field.
    _with_exact_newton_solves(monkeypatch)
    result = _rotation_newton_run()
    assert [r.iterations for r in result.reports] == [3, 3, 3]
    assert [r.omega_or_xi_history for r in result.reports] == [
        [0.9998269297282878, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    assert _digest(result.u) == "005f1aab16d08e3a"


def test_rotation_newton_run_matches_the_previous_state_start(monkeypatch):
    _with_exact_newton_solves(monkeypatch)
    result = _rotation_newton_run()
    ref = _rotation_newton_run(march_from_previous_state)
    # the pin from before the extrapolated start
    assert _digest(ref.u) == "85ec43cb19dbf14e"
    assert all(r.iterations <= r_ref.iterations
               for r, r_ref in zip(result.reports, ref.reports))
    assert np.max(np.abs(result.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))


def _both_starts():
    """The rotation run from the extrapolated start and from u^n."""
    return _rotation_newton_run(), \
        _rotation_newton_run(march_from_previous_state)


def _assert_close_to_references(runs, refs, pins, step_lengths=True):
    """Reference runs from both starts with digests ``pins``, the second
    (from u^n) the pin from before the change the reference stands for, each
    close to the run from the same start.  From u^n the step lengths must
    agree; ``step_lengths`` says whether they must from the extrapolated
    start."""
    assert [_digest(ref.u) for ref in refs] == pins
    for run, ref, same_xi in zip(runs, refs, (step_lengths, True)):
        _assert_close_to_reference(run.u, run.reports, ref.u, ref.reports,
                                   same_xi)


def test_rotation_newton_run_matches_the_former_jacobian(monkeypatch):
    _with_exact_newton_solves(monkeypatch)
    runs = _both_starts()
    _with_former_jacobian(monkeypatch)
    _assert_close_to_references(runs, _both_starts(),
                                ["3bf79ede545c7304", "8f4f46930c7e4e4c"])


# From the extrapolated start, step 3's last Newton iteration starts at
# ||T|| = 4.3e-13 and its full step lands on the roundoff floor, 1.4e-15.
# That decrease is not decisive, so the probe at 1 - ls_tol, also on the
# floor, decides between the full step and golden section: noise (see
# line_search).  The factorized references take xi = 0.99985 there, the
# GMRES run 1.0; the fields agree to 5e-16.

def test_rotation_newton_run_matches_the_direct_reference(monkeypatch):
    _with_exact_newton_solves(monkeypatch)
    runs = _both_starts()
    # every J factorized on the nested-dissection ordering
    _with_former_jacobian(monkeypatch)
    _without_krylov(monkeypatch)
    _assert_close_to_references(runs, _both_starts(),
                                ["7ee06149980b3c93", "e404f51245523bf9"],
                                step_lengths=False)


def test_rotation_newton_run_matches_the_mmd_reference(monkeypatch):
    _with_exact_newton_solves(monkeypatch)
    runs = _both_starts()
    _with_former_jacobian(monkeypatch)
    _with_mmd_jacobian_solve(monkeypatch)
    _assert_close_to_references(runs, _both_starts(),
                                ["d7ab228d109fc206", "fb0f3ed30d86cea1"],
                                step_lengths=False)
