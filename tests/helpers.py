"""Routines that only the tests use: a graph seminorm, the edge dissipation,
a single-fan P1 patch and index maps of an adjacency ``Pattern``."""

import numpy as np

from dmpfem.assembly import pattern
from dmpfem.mesh import P1, Mesh2D


def graph_seminorm(mesh, w):
    """sqrt(1/2 sum_i sum_{j in N_i} (w_i - w_j)^2), the graph-Laplacian seminorm."""
    pat = pattern(mesh)
    w = np.asarray(w, dtype=float)
    d = w[pat.edge_rows] - w[pat.edge_cols]
    return float(np.sqrt(0.5 * (d @ d)))


def dissipation(mesh, nu, u):
    """sum_i sum_{j in N_i} nu_ij (u_i - u_j)^2 over the stored edges.

    Counts each unordered pair twice (once per row), so it equals twice the
    quadratic form <B u, u>.
    """
    pat = nu.pattern
    u = np.asarray(u, dtype=float)
    d = u[pat.edge_rows] - u[pat.edge_cols]
    return float(np.sum(nu.data[pat.edge_pos] * d * d))


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
