"""Benchmark problem catalog, error norms, convergence studies, and
maximum-principle audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import _G2, VelocityModel, pattern
from .mesh import Q1, build_structured, row_norms, shape_functions
from .solvers import dmp_audit
from .timeloop import run_steady

STEADY_PARABOLIC = "STEADY_PARABOLIC"
STRAIGHT_DISCONTINUITY = "STRAIGHT_DISCONTINUITY"
CIRCULAR_CONVECTION = "CIRCULAR_CONVECTION"
THREE_BODY_ROTATION = "THREE_BODY_ROTATION"
BURGERS2D = "BURGERS2D"

OMEGA = "omega"
OUTFLOW = "outflow"

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark: domain, velocity, boundary/initial data, exact solution."""

    name: str
    domain: tuple
    velocity: VelocityModel
    inflow_where: callable          # (x, y) -> bool mask on the boundary
    u_dirichlet: callable           # (x, y, t) -> values
    u0: callable = None             # (x, y) -> values; None for steady-only
    exact: callable = None          # (x, y) -> values, where available
    g: callable = None
    steady: bool = True
    default_dt: float = None


def _near(v, target):
    return np.abs(np.asarray(v, dtype=float) - target) < _EDGE_TOL


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def _steady_parabolic():
    def u_exact(x, y):
        return y - y * y

    return ProblemSpec(
        name=STEADY_PARABOLIC,
        domain=(0.0, 1.0, 0.0, 1.0),
        velocity=VelocityModel.linear(
            lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                          np.zeros_like(np.asarray(x, dtype=float))),
            beta_bound=1.0),
        inflow_where=lambda x, y: _near(x, 0.0) | _near(y, 0.0) | _near(y, 1.0),
        u_dirichlet=lambda x, y, t: u_exact(x, y),
        exact=u_exact,
        steady=True)


def _straight_discontinuity():
    slope = 2.0 * np.sin(-np.pi / 3.0)     # characteristics dy/dx

    def u_exact(x, y):
        return np.where(np.asarray(y, dtype=float) > 0.7 + slope * np.asarray(x, dtype=float),
                        1.0, 0.0)

    def u_d(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where((_near(x, 0.0) & (y > 0.7)) | _near(y, 1.0), 1.0, 0.0)

    return ProblemSpec(
        name=STRAIGHT_DISCONTINUITY,
        domain=(0.0, 1.0, 0.0, 1.0),
        velocity=VelocityModel.linear(
            lambda x, y: (np.full_like(np.asarray(x, dtype=float), 0.5),
                          np.full_like(np.asarray(x, dtype=float), np.sin(-np.pi / 3.0))),
            beta_bound=1.0),
        inflow_where=lambda x, y: _near(x, 0.0) | _near(y, 1.0),
        u_dirichlet=u_d,
        exact=u_exact,
        steady=True)


def _circular_convection():
    def annulus(x, y):
        r = np.sqrt(np.square(np.asarray(x, dtype=float)) + np.square(np.asarray(y, dtype=float)))
        return np.where((r > 0.35) & (r < 0.65), 1.0, 0.0)

    def inflow(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return ((_near(x, 0.0) & (y > 0)) | _near(y, 1.0)
                | (_near(x, 1.0) & (y < 0)))

    return ProblemSpec(
        name=CIRCULAR_CONVECTION,
        domain=(0.0, 1.0, -1.0, 1.0),
        velocity=VelocityModel.linear(
            lambda x, y: (np.asarray(y, dtype=float), -np.asarray(x, dtype=float)),
            beta_bound=np.sqrt(2.0)),
        inflow_where=inflow,
        u_dirichlet=lambda x, y, t: annulus(x, y),
        exact=annulus,
        steady=True)


def _three_body():
    def u0(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = np.zeros(np.broadcast(x, y).shape)
        r_hump = np.sqrt((x - 0.25) ** 2 + (y - 0.5) ** 2) / 0.15
        u = np.where(r_hump <= 1.0, 0.25 * (1.0 + np.cos(np.pi * np.minimum(r_hump, 1.0))), u)
        r_cone = np.sqrt((x - 0.5) ** 2 + (y - 0.25) ** 2) / 0.15
        u = np.where(r_cone <= 1.0, 1.0 - r_cone, u)
        r_cyl = np.sqrt((x - 0.5) ** 2 + (y - 0.75) ** 2) / 0.15
        slot = (x > 0.45) & (x < 0.55) & (y < 0.85)
        u = np.where((r_cyl <= 1.0) & ~slot, 1.0, u)
        return u

    def inflow(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return ((_near(x, 0.0) & (y < 0.5)) | (_near(y, 0.0) & (x > 0.5))
                | (_near(x, 1.0) & (y > 0.5)) | (_near(y, 1.0) & (x < 0.5)))

    return ProblemSpec(
        name=THREE_BODY_ROTATION,
        domain=(0.0, 1.0, 0.0, 1.0),
        velocity=VelocityModel.linear(
            lambda x, y: (0.5 - np.asarray(y, dtype=float),
                          np.asarray(x, dtype=float) - 0.5),
            beta_bound=np.sqrt(0.5)),
        inflow_where=inflow,
        u_dirichlet=lambda x, y, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape),
        u0=u0,
        steady=False,
        default_dt=1e-3)


def _burgers():
    def u0(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        top = y >= 0.5
        right = x >= 0.5
        return np.where(top, np.where(right, -1.0, -0.2),
                        np.where(right, 0.8, 0.5))

    def inflow(x, y):
        # where the characteristic speed (u0, u0) of the boundary data
        # points into the square
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (_near(y, 0.0) | _near(y, 1.0)
                | (_near(x, 0.0) & (y < 0.5)) | (_near(x, 1.0) & (y >= 0.5)))

    return ProblemSpec(
        name=BURGERS2D,
        domain=(0.0, 1.0, 0.0, 1.0),
        velocity=VelocityModel.burgers(beta_bound=np.sqrt(2.0) / 2.0),
        inflow_where=inflow,
        u_dirichlet=lambda x, y, t: u0(x, y),
        u0=u0,
        steady=False,
        default_dt=1e-2)


_CATALOG = {
    STEADY_PARABOLIC: _steady_parabolic,
    STRAIGHT_DISCONTINUITY: _straight_discontinuity,
    CIRCULAR_CONVECTION: _circular_convection,
    THREE_BODY_ROTATION: _three_body,
    BURGERS2D: _burgers,
}

PROBLEM_NAMES = tuple(sorted(_CATALOG))


def make_problem(name):
    """Build a catalog problem by name."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; known problems: {', '.join(PROBLEM_NAMES)}") \
            from None
    return factory()


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------

_GPTS3 = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GWTS3 = np.array([5.0, 8.0, 5.0]) / 9.0


def _reference_subcell_rule(kind, refine):
    """(local points, local weight fractions) of a refine-times subdivided
    reference element; weights are fractions of the element measure."""
    pts, wts = [], []
    if kind == Q1:
        for a in range(refine):
            for b in range(refine):
                for gx in _G2:
                    for gy in _G2:
                        pts.append(((a + gx) / refine, (b + gy) / refine))
                        wts.append(1.0 / (4.0 * refine * refine))
        return np.array(pts), np.array(wts)
    # reference triangle split into refine^2 congruent copies, 3-midpoint
    # rule on each
    def add_tri(c0, c1, c2):
        for p, q in ((c0, c1), (c1, c2), (c0, c2)):
            pts.append(((p[0] + q[0]) / (2.0 * refine),
                        (p[1] + q[1]) / (2.0 * refine)))
            wts.append(1.0 / (3.0 * refine * refine))

    for a in range(refine):
        for b in range(refine - a):
            add_tri((a, b), (a + 1, b), (a, b + 1))
            if a + b < refine - 1:
                add_tri((a + 1, b), (a + 1, b + 1), (a, b + 1))
    return np.array(pts), np.array(wts)


# elements per block and subdivisions per edge of the refined error quadrature
_NORM_BLOCK = 1024
_NORM_REFINE = 4


def error_norms(mesh, u, exact, region=OMEGA, inflow_where=None):
    """(L1, L2) norms of u_h - exact over the domain or the outflow boundary.

    The domain integral uses an element-subdivided Gauss rule so that
    discontinuous exact solutions are integrated accurately; the outflow
    integral uses 3-point Gauss on each non-inflow boundary edge.
    """
    if exact is None:
        raise ValueError("error norms need an exact solution")
    u = np.asarray(u, dtype=float)
    if region == OMEGA:
        # u_h is shape(loc) @ u_e at the rule's reference points; the
        # integrands w |e| and w |e|^2 by blocks of elements, summed whole:
        # the values of one pass over all elements, a fraction of its
        # temporaries
        loc, frac = _reference_subcell_rule(mesh.kind, _NORM_REFINE)
        shape, _ = shape_functions(mesh.kind, loc[:, 0], loc[:, 1])
        wts = mesh.element_areas()[:, None] * frac
        w1 = np.empty_like(wts)
        w2 = np.empty_like(wts)
        for lo in range(0, mesh.n_elements, _NORM_BLOCK):
            block = slice(lo, lo + _NORM_BLOCK)
            conn = mesh.elements[block]
            pts = np.einsum("qa,ead->eqd", shape, mesh.coords[conn])
            uh = np.einsum("qa,ea->eq", shape, u[conn])
            diff = np.abs(uh - exact(pts[..., 0], pts[..., 1]))
            w1[block] = wts[block] * diff
            w2[block] = w1[block] * diff
        return float(np.sum(w1)), float(np.sqrt(np.sum(w2)))
    if region != OUTFLOW:
        raise ValueError(f"unknown region {region!r}")
    if inflow_where is None:
        raise ValueError("outflow norms need the problem's inflow predicate")
    a, b = mesh.boundary_edges.T
    xa, xb = mesh.coords[a], mesh.coords[b]
    mid = 0.5 * (xa + xb)
    out = ~np.asarray(inflow_where(mid[:, 0], mid[:, 1]), dtype=bool)
    xa, xb, mid, ua, ub = xa[out], xb[out], mid[out], u[a][out], u[b][out]
    half = 0.5 * row_norms(xb - xa)
    # 3-point Gauss on each outflow edge: points (m, 3, 2), values (m, 3)
    x = mid[:, None, :] + 0.5 * _GPTS3[None, :, None] * (xb - xa)[:, None, :]
    uh = 0.5 * (ua + ub)[:, None] + 0.5 * _GPTS3 * (ub - ua)[:, None]
    diff = np.abs(uh - exact(x[..., 0], x[..., 1]))
    w = _GWTS3 * half[:, None]
    return float(_running_sum(w * diff)), float(np.sqrt(_running_sum(w * diff * diff)))


def error_report(mesh, u, problem):
    """The L1 and L2 errors of u against the problem's exact solution over
    the domain and over the outflow boundary: keys L1, L2, L1_out, L2_out."""
    l1, l2 = error_norms(mesh, u, problem.exact)
    l1o, l2o = error_norms(mesh, u, problem.exact, region=OUTFLOW,
                           inflow_where=problem.inflow_where)
    return {"L1": l1, "L2": l2, "L1_out": l1o, "L2_out": l2o}


def _running_sum(x):
    """0.0 + x[0] + x[1] + ... in order, so a result is reproducible to the
    last bit, unlike np.sum's pairwise blocks."""
    return np.add.accumulate(np.append(0.0, x))[-1]


# ----------------------------------------------------------------------
# studies and audits
# ----------------------------------------------------------------------

def eoc(errors, hs):
    """Experimental orders of convergence between consecutive refinements."""
    out = [np.nan]
    for k in range(1, len(errors)):
        if errors[k] <= 0 or errors[k - 1] <= 0:
            out.append(np.nan)
        else:
            out.append(np.log(errors[k - 1] / errors[k])
                       / np.log(hs[k - 1] / hs[k]))
    return out


def convergence_study(problem, sizes, make_cfg, kind=Q1):
    """Steady L2 errors and orders over a mesh sweep; rows (h, L2, EOC).

    ``make_cfg(h)`` gives the TimeConfig of the n x n mesh, h = width / n.
    """
    if problem.exact is None:
        raise ValueError("convergence study needs an exact solution")
    hs, errs = [], []
    x0, x1, _, _ = problem.domain
    for n in sizes:
        mesh = build_structured(n, n, domain=problem.domain, kind=kind)
        h = (x1 - x0) / n
        u, report = run_steady(mesh, problem, make_cfg(h))
        if not report.converged:
            raise RuntimeError(f"steady solve at n={n} did not converge")
        _, l2 = error_norms(mesh, u, problem.exact)
        hs.append(h)
        errs.append(l2)
    orders = eoc(errs, hs)
    return [(h, e, o) for h, e, o in zip(hs, errs, orders)]


def local_dmp_audit(mesh, u, tol=1e-10):
    """Interior nodes whose value leaves the hull of their neighbors."""
    u = np.asarray(u, dtype=float)
    pat = pattern(mesh)
    hi = np.full(mesh.n_nodes, -np.inf)
    lo = np.full(mesh.n_nodes, np.inf)
    np.maximum.at(hi, pat.edge_rows, u[pat.edge_cols])
    np.minimum.at(lo, pat.edge_rows, u[pat.edge_cols])
    ui = u[mesh.interior_nodes]
    bad = (ui > hi[mesh.interior_nodes] + tol) | (ui < lo[mesh.interior_nodes] - tol)
    return mesh.interior_nodes[bad].tolist()
