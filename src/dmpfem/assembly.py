"""Galerkin operators on the mesh-adjacency sparsity pattern.

Nodal fields are plain 1D numpy arrays of length ``mesh.n_nodes``.  All
operators (mass, convection, viscosity, stabilization, ...) share one
``Pattern`` per mesh whose stored entries are exactly the adjacency graph:
entry (i, j) exists iff j is in the neighborhood of i.  Explicit zeros are
kept so that structural identities (symmetry, row sums) can be checked
entrywise.

The element blocks of the mass, the convection F(w), its state derivative
and the entry-derivative tensor are formed by ``_element_blocks`` on a
per-mesh copy of the quadrature with the element index last, so each numpy
operation runs over contiguous arrays of length n_elements rather than over
the 3 or 4 quadrature points.  The helper keeps the summation order of the
generic ``np.einsum`` it replaced: the same products, formed left to right,
added one quadrature point at a time.  That order matters because Anderson
follows the last bits of every F(u): a reordering that moves them changes
its iteration counts.  The two-operand einsums (quadrature-point values and
gradients of a state, the forcing) stay einsums: numpy reduces them in SIMD
lanes whose order depends on the CPU, and a sequential loop in their place
would change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Q1

# 2-point Gauss nodes on [0, 1]
_G2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


class Pattern:
    """Adjacency-graph sparsity pattern with transpose and edge index maps.

    ``indptr``/``indices`` are the mesh's CSR adjacency; the off-diagonal
    entries ``edge_pos`` are the mesh's node pairs, in the same order.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n_nodes
        self.indptr, self.indices = mesh.adj_ptr, mesh.adj_idx
        self.nnz = int(self.indptr[-1])
        self.rows = np.repeat(np.arange(n), np.diff(self.indptr))
        self.cols = self.indices
        # pattern is symmetric: position of (j, i) for each stored (i, j)
        self.transpose_pos = np.lexsort((self.rows, self.cols))
        diag = self.rows == self.cols
        self.diag_pos = np.nonzero(diag)[0]
        self.edge_pos = np.nonzero(~diag)[0]
        self.edge_rows = self.rows[self.edge_pos]
        self.edge_cols = self.cols[self.edge_pos]
        self.edge_transpose_pos = self.transpose_pos[self.edge_pos]
        # stored entries in row-major order are sorted by row*n + col
        self._keys = self.rows * n + self.cols
        # map element-local (a, b) pairs to data positions, for bincount assembly
        conn = mesh.elements
        self.element_map = self.position(conn[:, :, None], conn[:, None, :])
        # index arrays in scipy's dtype that every CSR view of pattern data
        # shares; read-only, so an in-place sparse operation on a view raises
        idx = sp.get_index_dtype(maxval=self.nnz)
        self.csr_indices, self.csr_indptr = (
            a.astype(idx) for a in (self.indices, self.indptr))
        self.csr_indices.flags.writeable = self.csr_indptr.flags.writeable = False

    def position(self, i, j):
        """Data position of each stored entry (i, j); KeyError if absent."""
        key = np.asarray(i) * self.n + np.asarray(j)
        pos = np.searchsorted(self._keys, key)
        if not np.array_equal(self._keys[np.minimum(pos, self.nnz - 1)], key):
            raise KeyError((i, j))
        return pos

    def csr(self, data):
        """CSR matrix of pattern data, sharing the read-only index arrays."""
        return sp.csr_matrix((data, self.csr_indices, self.csr_indptr),
                             shape=(self.n, self.n))


@dataclass
class SparseOperator:
    """Square sparse matrix with values pinned to a shared Pattern."""

    pattern: Pattern
    data: np.ndarray

    @classmethod
    def zeros(cls, pattern):
        return cls(pattern, np.zeros(pattern.nnz))

    def copy(self):
        return SparseOperator(self.pattern, self.data.copy())

    def to_csr(self):
        return self.pattern.csr(self.data)

    def matvec(self, x):
        return self.to_csr() @ x

    def row_sums(self):
        return np.bincount(self.pattern.rows, weights=self.data,
                           minlength=self.pattern.n)


def row_positions(indptr, rows):
    """Data positions of the stored entries of ``rows`` of a CSR structure."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    return (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def pattern(mesh):
    """The (cached) adjacency pattern of a mesh."""
    if "pattern" not in mesh._cache:
        mesh._cache["pattern"] = Pattern(mesh)
    return mesh._cache["pattern"]


# ----------------------------------------------------------------------
# element quadrature
# ----------------------------------------------------------------------

def quadrature(mesh):
    """Per-element quadrature: points, weights, shapes, gradients.

    Q1 uses a 2x2 Gauss rule on the rectangle, P1 the 3-point edge-midpoint
    rule; both integrate the Galerkin bilinear forms of this package without
    quadrature error for the velocity fields supported here.

    Returns (points (ne, nq, 2), weights (ne, nq), shape (nq, nloc),
    grads (ne, nq, nloc, 2)).
    """
    if "quadrature" in mesh._cache:
        return mesh._cache["quadrature"]

    conn = mesh.elements
    pts = mesh.coords[conn]
    ne = mesh.n_elements
    if mesh.kind == Q1:
        wx, wy = mesh.element_rect_sides()
        ref = np.array([(gx, gy) for gy in _G2 for gx in _G2])
        nq = 4
        shape = np.empty((nq, 4))
        dshape = np.empty((nq, 4, 2))
        for q, (xi, eta) in enumerate(ref):
            shape[q] = [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta]
            dshape[q, :, 0] = [-(1 - eta), (1 - eta), eta, -eta]
            dshape[q, :, 1] = [-(1 - xi), -xi, xi, (1 - xi)]
        points = (pts[:, None, 0, :]
                  + ref[None, :, :] * np.stack([wx, wy], axis=1)[:, None, :])
        weights = np.broadcast_to((wx * wy)[:, None] / 4.0, (ne, nq)).copy()
        grads = np.empty((ne, nq, 4, 2))
        grads[..., 0] = dshape[None, :, :, 0] / wx[:, None, None]
        grads[..., 1] = dshape[None, :, :, 1] / wy[:, None, None]
    else:
        # reference midpoints (1/2,0), (1/2,1/2), (0,1/2); weight area/3 each
        ref = np.array([(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])
        nq = 3
        shape = np.column_stack([1 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]])
        v0, v1, v2 = pts[:, 0], pts[:, 1], pts[:, 2]
        jac = np.stack([v1 - v0, v2 - v0], axis=2)        # (ne, 2, 2), cols are edges
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        area = 0.5 * np.abs(det)
        points = (v0[:, None, :]
                  + ref[None, :, 0, None] * (v1 - v0)[:, None, :]
                  + ref[None, :, 1, None] * (v2 - v0)[:, None, :])
        weights = np.broadcast_to(area[:, None] / 3.0, (ne, nq)).copy()
        dref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # (nloc, 2)
        inv = np.linalg.inv(jac)                                  # (ne, 2, 2)
        g = np.einsum("ld,edk->elk", dref, inv)                   # (ne, nloc, 2)
        grads = np.broadcast_to(g[:, None, :, :], (ne, nq, 3, 2)).copy()

    mesh._cache["quadrature"] = (points, weights, shape, grads)
    return mesh._cache["quadrature"]


def _element_last(mesh):
    """The quadrature weights (nq, ne) and the x- and y-gradients
    (nq, nloc, ne) of ``quadrature``, laid out with the element index last;
    built once per mesh, read-only."""
    if "element_last" not in mesh._cache:
        _, weights, _, grads = quadrature(mesh)
        arrays = (np.ascontiguousarray(weights.T),
                  *(np.ascontiguousarray(grads[..., d].transpose(1, 2, 0))
                    for d in (0, 1)))
        for a in arrays:
            a.flags.writeable = False
        mesh._cache["element_last"] = arrays
    return mesh._cache["element_last"]


def _element_blocks(phi, coef, *factors):
    """Element blocks sum_q coef[q] phi_q,a f1[q, b] f2[q, c] ... as a
    C-contiguous (ne, nloc, nloc, ...) array.

    ``coef`` is (nq, ne) and each factor (nq, nloc, ne), or (nq, nloc, 1)
    for a shape function.  Every product is formed left to right,
    ((coef phi_a) f1_b) f2_c, and added into a zero block one quadrature
    point at a time, in order: the arithmetic of ``np.einsum`` on these
    operands, so the result is the same to the bit.
    """
    out = np.zeros(phi.shape[1:] * (1 + len(factors)) + coef.shape[1:])
    for q, phi_q in enumerate(phi):
        term = coef[q] * phi_q[:, None]
        for f in factors:
            term = term[..., None, :] * f[q]
        out += term
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def _assemble_pairs(mesh, elem_vals):
    """Sum per-element (nloc x nloc) blocks into pattern data (deterministic)."""
    pat = pattern(mesh)
    flat_idx = pat.element_map.ravel()
    data = np.bincount(flat_idx, weights=elem_vals.ravel(), minlength=pat.nnz)
    return SparseOperator(pat, data)


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

def assemble_mass(mesh):
    """Consistent mass matrix M_ij = integral of phi_j phi_i."""
    shape = quadrature(mesh)[2]
    w = _element_last(mesh)[0]
    return _assemble_pairs(mesh, _element_blocks(shape, w, shape[..., None]))


def lumped_masses(mesh):
    """Row sums of the consistent mass: m_i = integral of phi_i."""
    return assemble_mass(mesh).row_sums()


@dataclass(frozen=True)
class VelocityModel:
    """Characteristic (group) velocity of the flux, as used in assembly.

    ``velocity(x, y, w)`` returns the flux derivative d f/d u evaluated at
    state w; for linear transport that is the transport field itself, for the
    quadratic Burgers flux it is (w, w).  ``dvelocity_dw`` is its state
    derivative, used by the exact Jacobian.  ``beta_bound`` bounds |f'| over
    the admissible states and scales the smooth-max parameter.
    """

    velocity: callable
    dvelocity_dw: callable
    is_linear: bool
    beta_bound: float

    @classmethod
    def linear(cls, vfun, beta_bound):
        zero = lambda x, y, w: (np.zeros_like(np.asarray(w, dtype=float)),
                                np.zeros_like(np.asarray(w, dtype=float)))
        return cls(velocity=lambda x, y, w: vfun(x, y),
                   dvelocity_dw=zero, is_linear=True, beta_bound=beta_bound)

    @classmethod
    def burgers(cls, beta_bound=np.sqrt(2.0)):
        # flux (1,1) w^2 / 2, so the characteristic speed is (w, w)
        return cls(velocity=lambda x, y, w: (np.asarray(w, dtype=float),
                                             np.asarray(w, dtype=float)),
                   dvelocity_dw=lambda x, y, w: (np.ones_like(np.asarray(w, dtype=float)),
                                                 np.ones_like(np.asarray(w, dtype=float))),
                   is_linear=False, beta_bound=beta_bound)


def assemble_convection(mesh, vel, w):
    """Advective operator F_ij(w) = integral of phi_i f'(w) . grad phi_j.

    Constants are annihilated row-wise: sum_j F_ij = 0 exactly for every row,
    the identity behind the local-extremum sign structure of the stabilized
    scheme.  At w = u this gives the conservative residual, F(u)u =
    (div f(u), phi_i) up to the (here exact) quadrature.
    """
    pts, _, shape, _ = quadrature(mesh)
    wq, gx, gy = _element_last(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->eq", shape, w[mesh.elements])
    vx, vy = vel.velocity(pts[..., 0], pts[..., 1], wq_vals)
    elem = _element_blocks(shape, wq * vx.T, gx)
    elem += _element_blocks(shape, wq * vy.T, gy)
    return _assemble_pairs(mesh, elem)


def assemble_convection_state_derivative(mesh, vel, w):
    """d(F(w)w)/dw minus F(w): the extra term phi_i phi_b (dv/dw . grad w)."""
    pat = pattern(mesh)
    if vel.is_linear:
        return SparseOperator.zeros(pat)
    pts, _, shape, grads = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    we = w[mesh.elements]
    wq_vals = np.einsum("qa,ea->eq", shape, we)
    gx = np.einsum("eqa,ea->eq", grads[..., 0], we)
    gy = np.einsum("eqa,ea->eq", grads[..., 1], we)
    dvx, dvy = vel.dvelocity_dw(pts[..., 0], pts[..., 1], wq_vals)
    coef = _element_last(mesh)[0] * (dvx * gx + dvy * gy).T
    return _assemble_pairs(mesh, _element_blocks(shape, coef, shape[..., None]))


def convection_entry_derivative_tensor(mesh, vel, w):
    """Element tensor T[e,a,b,c] = d F_ab / d u_c restricted to element e.

    Needed by the exact Jacobian of the artificial viscosity when the
    transport velocity depends on the state.  Returns None for linear models.
    """
    if vel.is_linear:
        return None
    pts, _, shape, _ = quadrature(mesh)
    wq, gx, gy = _element_last(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->eq", shape, w[mesh.elements])
    dvx, dvy = vel.dvelocity_dw(pts[..., 0], pts[..., 1], wq_vals)
    t = _element_blocks(shape, wq * dvx.T, gx, shape[..., None])
    t += _element_blocks(shape, wq * dvy.T, gy, shape[..., None])
    return t


def assemble_forcing(mesh, g):
    """Load vector g_i = integral of g phi_i, by element quadrature."""
    pts, wq, shape, _ = quadrature(mesh)
    gq = g(pts[..., 0], pts[..., 1])
    vals = np.einsum("eq,qa->ea", wq * gq, shape)
    return np.bincount(mesh.elements.ravel(), weights=vals.ravel(),
                       minlength=mesh.n_nodes)


def graph_seminorm(mesh, w):
    """sqrt(1/2 sum_i sum_{j in N_i} (w_i - w_j)^2), the graph-Laplacian seminorm."""
    pat = pattern(mesh)
    w = np.asarray(w, dtype=float)
    d = w[pat.edge_rows] - w[pat.edge_cols]
    return float(np.sqrt(0.5 * (d @ d)))
