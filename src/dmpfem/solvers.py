"""Nonlinear solvers: relaxed Anderson-accelerated fixed point iterations and
Newton's method with line search, both with optional projection of every
iterate onto the admissible bounds.

One driver, ``_iterate``, owns the loop: projection, nlerr, the histories,
the stop tests, the failure reasons and the report.  Each solver supplies
only its step.  nlerr stays asymmetric: Newton's is ||xi du|| / ||u_next||,
the step before projection, Anderson's ||P(mix) - u|| / ||u_next||, the
update after it.  Projection moves most iterates of the benchmark runs, so
one formula for both would change their iteration counts and logs.

Newton's line search minimizes ||T(u + xi du)|| by golden section, after a
check of the full step: when phi(1) <= ls_tol phi(0), or when it beats both
phi(0) and phi(1 - ls_tol), xi = 1 is taken for one or two residuals instead
of about 24.  The residual at the accepted point is handed back and reused as
the next iterate's T(u) unless projection moved that point.

Newton keeps one evaluation per iterate: the one whose T(u_k) it linearizes
at, the step's first residual or the point the line search accepted.  It
asks for it as ``sys.residual(u, keep=True)``, which returns T(u) and what
the evaluation leaves for the Jacobian at u: for a ``ResidualSystem``, A(u)
as assembled and the detector's state.  J(u_k) = ``sys.jacobian(u_k,
evaluation)`` starts from it, and Newton releases it once J is built.  The
line search keeps the evaluation of its best point only, and the Picard
sweep asks for none.

Newton is inexact (Dembo, Eisenstat & Steihaug, SINUM 1982): each J is
solved only to the forcing term eta_k = min(FORCING_CAP, ||T(u_k)|| /
||T(u_0)||), never below the 1e-12 that the Picard sweep keeps.  Since
eta_k = O(||T_k||), the quadratic tail survives (Eisenstat & Walker, SISC
1996), and the last iterations are solved as exactly as before.  Only the
GMRES cycle reads it; a factorized J is solved to roundoff.  On the
THREE_BODY_ROTATION benchmark this takes 514 GMRES products where 1e-12
took 1221, in 41 Newton iterations instead of 38, to a field 1.3e-13 apart;
a larger cap, 1e-1, lets a steady J pass its first rate check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import KRYLOV_RTOL, SingularSystemError, solve_linear

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
FORCING_CAP = 1e-2   # largest relative tolerance of a Newton linear solve


@dataclass
class SolverReport:
    """Per-iteration record of one nonlinear solve."""

    iterations: int = 0
    converged: bool = False
    nlerr_history: list = field(default_factory=list)
    dmp_violation_history: list = field(default_factory=list)
    omega_or_xi_history: list = field(default_factory=list)
    residual_norm: float = np.nan
    failure: str | None = None
    factorizations: int = 0     # linear solves that fell back to SuperLU
    residual_history: list = field(default_factory=list)  # Newton: ||T(u_k)||


def project_admissible(u, bounds):
    """Clip nodal values to the admissible interval (idempotent)."""
    return np.clip(u, bounds.lower, bounds.upper)


def dmp_audit(u, bounds):
    """Positive parts of the global bound violations (max side, min side)."""
    u = np.asarray(u, dtype=float)
    return (max(float(np.max(u) - bounds.upper), 0.0),
            max(float(bounds.lower - np.min(u)), 0.0))


def _anderson_coefficients(residuals):
    """Affine combination weights minimizing || sum_i xi_i r_i ||, sum xi = 1.

    The constraint is eliminated against the last weight, leaving a small
    unconstrained least-squares problem in the residual differences.
    """
    m = len(residuals)
    if m == 1:
        return np.array([1.0])
    r_last = residuals[-1]
    cols = np.column_stack([r - r_last for r in residuals[:-1]])
    sol, *_ = np.linalg.lstsq(cols, -r_last, rcond=None)
    xi = np.empty(m)
    xi[:-1] = sol
    xi[-1] = 1.0 - sol.sum()
    return xi


def _log_slope(errors):
    """OLS slope of log10(nlerr) against the iteration index."""
    vals = np.log10(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    k = np.arange(len(vals), dtype=float)
    if len(vals) < 2:
        return 0.0
    k -= k.mean()
    denom = float(k @ k)
    return float(k @ (vals - vals.mean()) / denom) if denom > 0 else 0.0


class _StepFailed(Exception):
    """No step could be taken; the message is the report's failure."""


def _iterate(sys, u0, step, tol, k_max, project):
    """Iterate ``step`` from u0 until nlerr < tol or k_max iterations.

    ``step(u, T, report)`` gets the iterate, the residual there when known
    (else None) and the report so far.  It returns ``(u_next, T_next,
    update, weight, factorized)``: the next point before projection, the
    residual there or None, the update that nlerr measures (None for the
    projected update u_next - u), the step length or relaxation to record,
    and whether its linear solve fell back to a factorization, or raises
    _StepFailed.  The admissible bounds are ``sys.bounds``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    bounds = getattr(sys, "bounds", None)
    if project and bounds is None:
        raise ValueError("projection requested without admissible bounds")

    u = np.asarray(u0, dtype=float).copy()
    report = SolverReport()
    T = None
    for k in range(1, k_max + 1):
        try:
            u_next, T, update, weight, factorized = step(u, T, report)
        except _StepFailed as exc:
            report.failure = str(exc)
            report.iterations = k - 1
            return u, report
        report.factorizations += factorized
        if project:
            u_proj = project_admissible(u_next, bounds)
            if not np.array_equal(u_proj, u_next):
                T = None    # the step's residual is at the unprojected point
            u_next = u_proj

        delta = u_next - u if update is None else update
        scale = float(np.linalg.norm(u_next)) or 1.0   # absolute at u = 0
        nlerr = float(np.linalg.norm(delta)) / scale
        report.nlerr_history.append(nlerr)
        report.dmp_violation_history.append(
            (0.0, 0.0) if bounds is None else dmp_audit(u_next, bounds))
        report.omega_or_xi_history.append(weight)
        report.iterations = k
        u = u_next

        if not np.all(np.isfinite(u)):
            report.failure = "non-finite iterate"
            return u, report
        if nlerr < tol:
            report.converged = True
            break

    if T is None:
        T = sys.residual(u)
    report.residual_norm = float(np.linalg.norm(T))
    # a vanishing accepted step with a large residual is a stall of the line
    # search, not convergence
    if report.converged and weight == 0.0 and \
            report.residual_norm > tol * max(1.0, float(np.linalg.norm(u))):
        report.converged = False
        report.failure = "line search stalled"
    return u, report


def anderson_solve(sys, u0, m=5, s_min=-0.05, omega0=1.0, omega_min=0.3,
                   tol=1e-6, k_max=500, project=False):
    """Fixed-point iterations with windowed Anderson acceleration.

    Each sweep solves A(u_k) u~ = G, combines the last m residuals by
    constrained least squares, blends the accelerated point with relaxation
    omega, and optionally projects onto the admissible ``sys.bounds``.  The
    relaxation is reduced by 0.1 (down to omega_min) whenever the fitted
    slope of log10(nlerr) over the window drops below s_min.
    """
    if m < 1:
        raise ValueError("window size m must be >= 1")
    if not (0 < omega_min <= omega0 <= 1):
        raise ValueError("need 0 < omega_min <= omega0 <= 1")
    omega = omega0
    hist_u, hist_ut, hist_r = [], [], []

    def step(u, T, report):
        nonlocal omega, hist_u, hist_ut, hist_r
        # relax when log10(nlerr) fell too slowly over the last window
        if hist_r and omega > omega_min and \
                _log_slope(report.nlerr_history[-(len(hist_r) + 1):]) < s_min:
            omega = max(omega - 0.1, omega_min)
        try:
            u_tilde, factorized = sys.picard_solve(u)
        except SingularSystemError as exc:
            raise _StepFailed(f"singular fixed-point operator: {exc}") from exc
        hist_u = (hist_u + [u])[-m:]
        hist_ut = (hist_ut + [u_tilde])[-m:]
        hist_r = (hist_r + [u_tilde - u])[-m:]
        xi = _anderson_coefficients(hist_r)
        mix_u = sum(x * v for x, v in zip(xi, hist_u))
        mix_ut = sum(x * v for x, v in zip(xi, hist_ut))
        u_next = (1.0 - omega) * mix_u + omega * mix_ut
        return u_next, None, None, omega, factorized

    return _iterate(sys, u0, step, tol, k_max, project)


def line_search(sys, u, du, ls_tol=1e-4, T0=None):
    """Step length xi in [0, 1] minimizing ||T(u + xi du)||, and T there.

    The endpoints are sampled first; ``T0``, the residual at u when the
    caller already has it, stands in for T(u + 0 du).  The full step is taken
    at once when phi(1) <= ls_tol phi(0), a decisive decrease, with no
    further residual; or when phi(1) < phi(0) and phi(1) <= phi(1 - ls_tol),
    which costs one probe residual.  Otherwise golden-section search runs
    down to an interval of width ``ls_tol`` and returns the best evaluated
    point (the first one sampled among ties), so a strictly decreasing
    profile yields exactly 1.0.  The probe never takes part in that choice:
    the search returns the xi it would return without the full-step check.
    On a unimodal profile the probe rule and golden section differ by less
    than ``ls_tol`` in xi, and where T is affine along du the decisive rule
    and golden section by a few ``ls_tol``; at the roundoff floor, where the
    profile is noise, the full step may win over a point golden section
    would have picked anywhere in [0, 1].

    Returns ``(xi, T(u + xi du), evaluation)``: the evaluation that
    ``sys.residual(., keep=True)`` returned with that T, for the Jacobian
    there, or None at xi = 0 when ``T0`` stood in for it.  Only the best
    residual and its evaluation are kept.
    """
    evals = {}
    best_xi = best_T = best_kept = None

    def phi(xi, T=None):
        nonlocal best_xi, best_T, best_kept
        if xi not in evals:
            kept = None
            if T is None:
                T, kept = sys.residual(u + xi * du, keep=True)
            evals[xi] = float(np.linalg.norm(T))
            # strict "<" in sampling order keeps the first point among ties
            if best_xi is None or evals[xi] < evals[best_xi]:
                best_xi, best_T, best_kept = xi, T, kept
        return evals[xi]

    phi(0.0, T0)
    phi(1.0)
    if evals[1.0] < evals[0.0]:
        if evals[1.0] <= ls_tol * evals[0.0]:    # decisive: no probe
            return 1.0, best_T, best_kept
        probe = float(np.linalg.norm(sys.residual(u + (1.0 - ls_tol) * du)))
        if evals[1.0] <= probe:
            return 1.0, best_T, best_kept
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
    return best_xi, best_T, best_kept


def newton_solve(sys, u0, tol=1e-6, k_max=500, project=False, ls_tol=1e-4):
    """Newton's method with residual-norm line search and optional projection.

    Projection is onto the admissible ``sys.bounds``.  The line search hands
    back the residual at its accepted point, and with it what that
    residual's evaluation left for the Jacobian; both serve the next
    iteration whenever projection leaves that point unchanged, so a residual
    is evaluated afresh only after projection moved the iterate, and J(u_k)
    always starts from T(u_k)'s evaluation.  ||T(u_k)|| goes to
    ``report.residual_history``, and J is solved to relative residual
    max(1e-12, min(FORCING_CAP, ||T(u_k)|| / ||T(u_0)||)) (see the module
    docstring).
    """
    order = getattr(sys, "jacobian_order", None)
    kept = None     # the evaluation behind the T that the last step handed on

    def jacobian(u):
        nonlocal kept
        evaluation, kept = kept, None     # released once J is built
        return sys.jacobian(u, evaluation)

    def step(u, T, report):
        nonlocal kept
        if T is None:
            T, kept = sys.residual(u, keep=True)
        if not np.all(np.isfinite(T)):
            raise _StepFailed("non-finite residual")
        norms = report.residual_history
        norms.append(float(np.linalg.norm(T)))
        rtol = max(KRYLOV_RTOL, min(FORCING_CAP, norms[-1] / norms[0])) \
            if norms[0] > 0.0 else KRYLOV_RTOL
        try:
            du, factorized = solve_linear(jacobian(u), -T, order=order,
                                          rtol=rtol)
        except SingularSystemError as exc:
            raise _StepFailed(f"singular Jacobian: {exc}") from exc
        xi, T, kept = line_search(sys, u, du, ls_tol, T)
        update = xi * du
        return u + update, T, update, xi, factorized

    return _iterate(sys, u0, step, tol, k_max, project)
