"""Conforming 2D meshes (structured Q1 quads and P1 triangles) with the
adjacency and symmetric-point geometry needed by the shock detector, held in
flat arrays.

A mesh is immutable after construction, so the structures built from it
alone (pattern, quadrature, mass, detector stencils, ...) are made once and
held by ``Mesh2D.cached``.  For every node ``i`` the macroelement
``Omega_i`` is the union of elements touching ``i``; its nodes, ``i`` itself
included, are row ``i`` of the CSR adjacency
``adj_idx[adj_ptr[i]:adj_ptr[i + 1]]``, sorted ascending.  The off-diagonal
adjacency entries, in row-major order, are the node *pairs*: pair ``p`` joins
``pair_i[p]`` to its neighbor ``pair_j[p]``.

For each pair the *symmetric point* is the intersection of the ray from
``x_i`` away from ``x_j`` with the macroelement boundary.  On structured
meshes it coincides with the mirrored node; on general patches it may fall in
the interior of an element edge, and on the domain boundary it may not exist
at all (the ray immediately leaves the domain), where ``has_sym[p]`` is
False.  Where it exists, ``u_h`` there is the fixed linear combination
``sym_coefs`` of the nodal values ``sym_cols`` over the run
``sym_ptr[p]:sym_ptr[p + 1]``: a single node with weight one when the point is
a mesh node, the element's nodes otherwise.  ``sym_dist[p]`` is
``|x_sym - x_i|`` (NaN where absent); the point itself is
``x_i + sym_dist[p] (x_i - x_j) / |x_i - x_j|``.

``boundary_edges`` lists the element sides seen exactly once as ``(a, b)``
with ``a < b``, in the order the elements first visit them.
"""

from __future__ import annotations

import numpy as np

Q1 = "q1"
P1 = "p1"

# exit point closer than this (relative to the local edge length) to an
# existing node is snapped to that node
_SNAP_REL = 1e-9

# node pairs per block of the geometric symmetric-point search; keeps its
# per-candidate-side temporaries to a few tens of MB
_RAY_BLOCK = 1 << 15


def row_norms(d):
    """Euclidean norms of the rows of d, rounded exactly as np.linalg.norm
    rounds each row on its own (hypot and norm(axis=1) differ in the last
    bit)."""
    return np.sqrt(np.vecdot(d, d))


def shape_functions(kind, xi, eta):
    """The element's shape functions at reference coordinates (xi, eta):
    the Q1 bilinears on the unit square, nodes counter-clockwise from the
    origin, or the P1 barycentrics on the unit triangle (0,0), (1,0), (0,1).

    Returns (values (..., nloc), reference gradients (2, ..., nloc)), the
    xi- and eta-derivatives.
    """
    if kind == Q1:
        values = [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta]
        grads = [[-(1 - eta), 1 - eta, eta, -eta], [-(1 - xi), -xi, xi, 1 - xi]]
    else:
        one, zero = np.ones_like(xi), np.zeros_like(xi)
        values = [1 - xi - eta, xi, eta]
        grads = [[-one, one, zero], [-one, zero, one]]
    return (np.stack(values, axis=-1),
            np.stack([np.stack(g, axis=-1) for g in grads]))


def _offsets(counts):
    """CSR offsets of consecutive runs with the given lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def row_positions(indptr, rows):
    """Data positions of the stored entries of ``rows`` of a CSR structure."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    return (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def _runs(ptr, rows):
    """Concatenated CSR runs ptr[r]:ptr[r+1] of the given rows.

    Returns (owner, pos, starts): the index into ``rows`` and the CSR
    position of each entry, and where each run begins in the concatenation.
    """
    counts = ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(rows.size), counts)
    return owner, row_positions(ptr, rows), np.cumsum(counts) - counts


def _first_true(mask, starts):
    """Index of the first True in each (non-empty) run; mask.size if none."""
    idx = np.where(mask, np.arange(mask.size), mask.size)
    return np.minimum.reduceat(idx, starts)


def _ray_exits(coords, xi, d, side_ptr, rows, side_a, side_b):
    """Exit of each ray x_i + t d (t > 0) through the candidate sides
    [a, b] of its node: (smallest t, or inf without a hit; index of the
    earliest candidate side attaining it).  Near-parallel sides are skipped.
    """
    owner, cand, starts = _runs(side_ptr, rows)
    dc = d[owner]
    a, b = coords[side_a[cand]], coords[side_b[cand]]
    m01, m11 = a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]
    det = dc[:, 0] * m11 - m01 * dc[:, 1]
    scale = np.maximum(row_norms(d)[owner], row_norms(b - a))
    rhs = a - xi[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rhs[:, 0] * m11 - rhs[:, 1] * m01) / det
        s = (dc[:, 0] * rhs[:, 1] - dc[:, 1] * rhs[:, 0]) / det
    hit = (~(np.abs(det) < 1e-14 * scale * scale) & (t > 1e-12)
           & (s >= -1e-12) & (s <= 1 + 1e-12))
    t = np.where(hit, t, np.inf)
    best_t = np.minimum.reduceat(t, starts)
    return best_t, cand[_first_true(t == best_t[owner], starts)]


class Mesh2D:
    """Nodes, elements, adjacency and symmetric-point data of a 2D mesh."""

    def __init__(self, coords, elements, kind, structured_shape=None):
        coords = np.asarray(coords, dtype=float)
        elements = np.asarray(elements, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (n_nodes, 2)")
        nloc = {P1: 3, Q1: 4}.get(kind)
        if nloc is None:
            raise ValueError(f"unknown element kind {kind!r}")
        if elements.ndim != 2 or elements.shape[1] != nloc:
            raise ValueError(f"{kind} elements must have {nloc} nodes each")
        # the mirrored-node path holds on build_structured's grid only
        if structured_shape is not None:
            box = np.column_stack([coords.min(axis=0), coords.max(axis=0)])
            grid = _grid(*structured_shape, box.ravel(), kind)
            if not all(map(np.array_equal, (coords, elements), grid)):
                raise ValueError(f"structured_shape {structured_shape} is not "
                                 "the grid of the mesh's bounding box")

        self.coords = coords
        self.elements = elements
        self.kind = kind
        self.structured_shape = structured_shape  # (nx, ny) cell counts or None
        self.n_nodes = coords.shape[0]
        self.n_elements = elements.shape[0]
        self._cache = {}

        self._build_adjacency()
        self._build_boundary()
        if structured_shape is not None:
            self._sym_structured()
        else:
            self._sym_geometric()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_adjacency(self):
        n, conn = self.n_nodes, self.elements
        # distinct (row, col) keys by sorting: np.unique's hash-based path
        # is about 20x slower on these arrays
        keys = np.sort((conn[:, :, None] * n + conn[:, None, :]).ravel())
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        rows, self.adj_idx = np.divmod(keys, n)
        self.adj_ptr = _offsets(np.bincount(rows, minlength=n))
        off = rows != self.adj_idx
        self.pair_i, self.pair_j = rows[off], self.adj_idx[off]

    def _build_boundary(self):
        # element sides (conn[a], conn[a+1 mod k]); boundary sides are seen once
        a = self.elements.ravel()
        b = np.roll(self.elements, -1, axis=1).ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, counts = np.unique(lo * self.n_nodes + hi,
                                     return_index=True, return_counts=True)
        order = np.argsort(first)
        first, counts = first[order], counts[order]
        # every side once, first-seen order: the mean is summed in that order
        sides = np.column_stack([lo[first], hi[first]])
        lengths = row_norms(self.coords[sides[:, 0]] - self.coords[sides[:, 1]])
        self.h_mean = float(np.mean(lengths))
        self.boundary_edges = sides[counts == 1]
        self.is_boundary = np.zeros(self.n_nodes, dtype=bool)
        self.is_boundary[self.boundary_edges] = True
        self.interior_nodes = np.nonzero(~self.is_boundary)[0]

    def _store_sym(self, has, dist, counts, cols, coefs):
        """Record the symmetric points of the pairs in ``has``; row q of
        cols/coefs holds the first counts[q] interpolation terms of the q-th."""
        n_pairs = self.pair_i.size
        per_pair = np.zeros(n_pairs, dtype=np.int64)
        per_pair[has] = counts
        self.sym_ptr = _offsets(per_pair)
        keep = np.arange(cols.shape[1]) < counts[:, None]
        self.sym_cols = cols[keep]
        self.sym_coefs = coefs[keep]
        self.has_sym = has
        self.sym_dist = np.full(n_pairs, np.nan)
        self.sym_dist[has] = dist

    def _sym_structured(self):
        # on a uniform tensor grid the ray away from j exits Omega_i exactly at
        # the mirrored node 2*x_i - x_j whenever that index is inside the grid,
        # and leaves the domain immediately otherwise
        nx, ny = self.structured_shape
        stride = nx + 1
        i, j = self.pair_i, self.pair_j
        mx = 2 * (i % stride) - j % stride
        my = 2 * (i // stride) - j // stride
        has = (mx >= 0) & (mx <= nx) & (my >= 0) & (my <= ny)
        k = (my * stride + mx)[has]
        dist = row_norms(self.coords[k] - self.coords[i[has]])
        self._store_sym(has, dist, np.ones(k.size, dtype=np.int64),
                        k[:, None], np.ones((k.size, 1)))

    def _sym_geometric(self):
        conn = self.elements
        k = conn.shape[1]
        # candidate exit sides of each node: for each element touching it, in
        # ascending element order (stable sort), the sides (l, l+1 mod k) that
        # do not contain it, in ascending l
        flat = conn.ravel()
        inc = np.argsort(flat, kind="stable")
        inc_elem, inc_loc = np.divmod(inc, k)
        opp = np.array([[s for s in range(k) if s not in (a, (a - 1) % k)]
                        for a in range(k)])
        side = opp[inc_loc].ravel()
        elem = np.repeat(inc_elem, k - 2)
        side_a, side_b = conn[elem, side], conn[elem, (side + 1) % k]
        side_ptr = _offsets(np.bincount(flat, minlength=self.n_nodes) * (k - 2))

        pair_ptr = _offsets(np.bincount(self.pair_i, minlength=self.n_nodes))
        # blocks of pairs bound the memory of the per-candidate arrays
        n_pairs = self.pair_i.size
        parts = [self._sym_block(slice(lo, lo + _RAY_BLOCK), pair_ptr,
                                 side_ptr, side_a, side_b, elem)
                 for lo in range(0, n_pairs, _RAY_BLOCK)]
        self._store_sym(*(np.concatenate(arrays) for arrays in zip(*parts)))

    def _sym_block(self, q, pair_ptr, side_ptr, side_a, side_b, elem):
        """Symmetric points of the pairs in slice q, as _store_sym takes them."""
        coords, k = self.coords, self.elements.shape[1]
        i, j = self.pair_i[q], self.pair_j
        xi = coords[i]
        d = xi - coords[j[q]]
        nd = row_norms(d)
        d = d / nd[:, None]
        best_t, best_c = _ray_exits(coords, xi, d, side_ptr, i, side_a, side_b)
        has = np.isfinite(best_t)
        best_t, best_elem = best_t[has], elem[best_c[has]]
        pi, nd = i[has], nd[has]
        x_sym = xi[has] + best_t[:, None] * d[has]

        # snap to the first neighbor of i (ascending) at a macroelement vertex
        owner, nb, starts = _runs(pair_ptr, pi)
        near = (row_norms(coords[j[nb]] - x_sym[owner]) < _SNAP_REL * nd[owner])
        first = _first_true(near, starts)
        snapped = first < near.size
        node = j[nb[first[snapped]]]

        cols, coefs = self.elements[best_elem], self._interp_coefs(best_elem, x_sym)
        cols[snapped, 0] = node
        coefs[snapped, 0] = 1.0
        dist = best_t
        dist[snapped] = row_norms(coords[node] - coords[pi[snapped]])
        return has, dist, np.where(snapped, 1, k), cols, coefs

    def _interp_coefs(self, e, x):
        """Nodal interpolation weights of the FE space of elements e at the
        points x, one row per point."""
        pts = self.coords[self.elements[e]]
        if self.kind == P1:
            mat = np.stack([np.ones(pts.shape[:2]), pts[..., 0], pts[..., 1]], axis=1)
            rhs = np.column_stack([np.ones(len(x)), x])
            return np.linalg.solve(mat, rhs[:, :, None])[:, :, 0]
        # axis-aligned Q1 rectangle
        wx = pts[:, 1, 0] - pts[:, 0, 0]
        wy = pts[:, 3, 1] - pts[:, 0, 1]
        xi, eta = (x[:, 0] - pts[:, 0, 0]) / wx, (x[:, 1] - pts[:, 0, 1]) / wy
        return shape_functions(Q1, xi, eta)[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def cached(self, key, build):
        """The per-mesh value stored under ``key``, made by ``build()`` on
        the first call.  A mesh is immutable, so the value holds for the
        mesh's life; callers that share it make its arrays read-only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def element_rect_sides(self):
        """(width, height) per element; Q1 elements must be axis-aligned."""
        pts = self.coords[self.elements]
        if self.kind != Q1:
            raise ValueError("only Q1 elements are rectangles")
        wx = pts[:, 1, 0] - pts[:, 0, 0]
        wy = pts[:, 3, 1] - pts[:, 0, 1]
        if not (np.allclose(pts[:, 0, 1], pts[:, 1, 1]) and np.allclose(pts[:, 0, 0], pts[:, 3, 0])):
            raise ValueError("Q1 elements must be axis-aligned rectangles")
        return wx, wy

    def element_areas(self):
        """Area of each element; Q1 elements must be axis-aligned."""
        if self.kind == Q1:
            wx, wy = self.element_rect_sides()
            return wx * wy
        v0, v1, v2 = np.moveaxis(self.coords[self.elements], 1, 0)
        e1, e2 = v1 - v0, v2 - v0
        return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1])


def build_structured(nx, ny, domain=(0.0, 1.0, 0.0, 1.0), kind=Q1):
    """Uniform nx-by-ny grid of the rectangle, as Q1 quads or P1 triangles.

    P1 cells are split along the lower-left-to-upper-right diagonal.  Node
    ``iy*(nx+1) + ix`` sits at grid position (ix, iy), x varying fastest.
    """
    return Mesh2D(*_grid(nx, ny, domain, kind), kind, structured_shape=(nx, ny))


def _grid(nx, ny, domain, kind):
    """(coords, elements) of ``build_structured``'s grid."""
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise ValueError("nx and ny must be integers")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    x0, x1, y0, y1 = domain
    if not (x1 > x0 and y1 > y0):
        raise ValueError("domain must be a nondegenerate rectangle")

    xx, yy = np.meshgrid(np.linspace(x0, x1, nx + 1),
                         np.linspace(y0, y1, ny + 1), indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    n00 = (iy * (nx + 1) + ix).ravel()
    n10, n01 = n00 + 1, n00 + nx + 1
    n11 = n01 + 1
    if kind == Q1:
        elems = np.column_stack([n00, n10, n11, n01])
    else:
        elems = np.stack([np.column_stack([n00, n10, n11]),
                          np.column_stack([n00, n11, n01])], axis=1).reshape(-1, 3)
    return coords, elems
