"""Routines that only the tests use: a graph seminorm, the edge dissipation,
a single-fan P1 patch, the symmetric points of a mesh, index maps of an
adjacency ``Pattern``, the node of each detector term, a transient system's
mass operator and a backward-Euler march from the previous state."""

from types import SimpleNamespace

import numpy as np

from dmpfem import stabilization as stab
from dmpfem.assembly import pattern
from dmpfem.mesh import P1, Mesh2D
from dmpfem.timeloop import admissible_bounds, dirichlet_bc, step_backward_euler


def graph_seminorm(mesh, w):
    """sqrt(1/2 sum_i sum_{j in N_i} (w_i - w_j)^2), the graph-Laplacian seminorm."""
    pat = pattern(mesh)
    w = np.asarray(w, dtype=float)
    d = w[pat.edge_rows] - w[pat.edge_cols]
    return float(np.sqrt(0.5 * (d @ d)))


def dissipation(mesh, B, u):
    """sum_i sum_{j in N_i} nu_ij (u_i - u_j)^2 over the stored edges, with
    nu_ij = -B_ij read off the stabilization operator B.

    Counts each unordered pair twice (once per row), so it equals twice the
    quadratic form <B u, u>.
    """
    pat = pattern(mesh)
    u = np.asarray(u, dtype=float)
    d = u[pat.edge_rows] - u[pat.edge_cols]
    return float(np.sum(-B.data[pat.edge_pos] * d * d))


def triangle_fan(center_xy, ring_xy):
    """Single-ring P1 fan patch: one interior node surrounded by ring nodes."""
    ring = np.asarray(ring_xy, dtype=float)
    n = ring.shape[0]
    if n < 3:
        raise ValueError("a fan needs at least 3 ring nodes")
    coords = np.vstack([np.asarray(center_xy, dtype=float)[None, :], ring])
    k = np.arange(n)
    elems = np.column_stack([np.zeros(n, dtype=np.int64), 1 + k, 1 + (k + 1) % n])
    return Mesh2D(coords, elems, P1)


def sym_points(mesh):
    """Symmetric point of every node pair, x_i + sym_dist (x_i - x_j) /
    |x_i - x_j|; NaN where the point does not exist."""
    xi, xj = mesh.coords[mesh.pair_i], mesh.coords[mesh.pair_j]
    d = xi - xj
    return xi + (mesh.sym_dist / np.linalg.norm(d, axis=1))[:, None] * d


def transpose_pos(pat):
    """Position of (j, i) for each stored (i, j) of a symmetric pattern."""
    return np.lexsort((pat.rows, pat.cols))


def position(pat, i, j):
    """Data position of each stored entry (i, j); KeyError if absent."""
    key = np.asarray(i) * pat.n + np.asarray(j)
    keys = pat.rows * pat.n + pat.cols
    pos = np.searchsorted(keys, key)
    if not np.array_equal(keys[np.minimum(pos, pat.nnz - 1)], key):
        raise KeyError((i, j))
    return pos


def term_row(st):
    """The node of each term of ``DetectorStencil`` ``st``, from the node
    sums' ``indptr``."""
    return np.repeat(np.arange(st.n_nodes), np.diff(st.S.indptr))


def march_from_previous_state(mesh, problem, cfg):
    """The final ``u`` and the step ``reports`` of ``run_transient``'s march
    with every step's solver started from u^n, as it was before the
    extrapolated guess."""
    u = np.asarray(problem.u0(mesh.coords[:, 0], mesh.coords[:, 1]),
                   dtype=float).copy()
    bc = dirichlet_bc(mesh, problem, 0.0)
    u[bc.nodes] = bc.values
    bounds = admissible_bounds(mesh, problem, steady=False)
    reports = []
    for n in range(int(round(cfg.t_end / cfg.dt))):
        u, report = step_backward_euler(mesh, problem, u, (n + 1) * cfg.dt,
                                        cfg, bounds=bounds)
        reports.append(report)
    return SimpleNamespace(u=u, reports=reports)


def mass_operator(sys, alphas):
    """The mass operator of transient ``ResidualSystem`` ``sys``: M under the
    symmetric mass and for Galerkin, else the gradually lumped M(alpha)."""
    if sys.params.detector == stab.GALERKIN or \
            sys.params.mass == stab.SYMMETRIC_MASS:
        return sys.mass
    return stab.assemble_nonlinear_mass(sys.mesh, sys.mass, sys.lumped, alphas)
