"""Galerkin operators on the mesh-adjacency sparsity pattern.

Nodal fields are plain 1D numpy arrays of length ``mesh.n_nodes``.  All
operators (mass, convection, viscosity, stabilization, ...) share one
``Pattern`` per mesh whose stored entries are exactly the adjacency graph:
entry (i, j) exists iff j is in the neighborhood of i.  Explicit zeros are
kept so that structural identities (symmetry, row sums) can be checked
entrywise.

The per-mesh quadrature is held once, with the element index last, so each
numpy operation runs over contiguous arrays of length n_elements rather than
over the 3 or 4 quadrature points.  On it ``_element_blocks`` forms the
element blocks of the mass, the convection F(w), its state derivative and
the entry-derivative tensor, in the summation order of a generic
``np.einsum``: the same products, formed left to right, added one quadrature
point at a time.  That order matters because Anderson follows the last bits
of every F(u): a reordering that moves them changes its iteration counts.
The two-operand einsums (quadrature-point values and gradients of a state,
the forcing) stay einsums: numpy reduces them in SIMD lanes whose order
depends on the CPU and on the operands' strides, and a sequential loop in
their place would change the last bits.  They read the quadrature in
place, as ``"qae,ea->qe"`` or through a transposed view: a contiguous
(element, point, node) copy of the gradients is reduced in another order.

The consistent mass, its row sums and the F of a linear velocity model
depend on the mesh alone and are assembled once per mesh (``_mass``,
``_linear_convection``).
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
    entries ``edge_pos`` are the mesh's node pairs, in the same order, so
    ``edge_rows``/``edge_cols`` are the mesh's ``pair_i``/``pair_j``.
    """

    def __init__(self, mesh):
        self.n = n = mesh.n_nodes
        self.indptr, self.indices = mesh.adj_ptr, mesh.adj_idx
        self.nnz = int(self.indptr[-1])
        self.rows = np.repeat(np.arange(n), np.diff(self.indptr))
        self.cols = self.indices
        diag = self.rows == self.cols
        self.diag_pos = np.nonzero(diag)[0]
        self.edge_pos = np.nonzero(~diag)[0]
        self.edge_rows, self.edge_cols = mesh.pair_i, mesh.pair_j
        # pattern is symmetric: position of (j, i) for each stored edge (i, j)
        transpose_pos = np.lexsort((self.rows, self.cols))
        self.edge_transpose_pos = transpose_pos[self.edge_pos]
        # map element-local (a, b) pairs to data positions, for bincount
        # assembly; stored entries in row-major order are sorted by row*n + col
        keys = self.rows * n + self.cols
        conn = mesh.elements
        pair_keys = conn[:, :, None] * n + conn[:, None, :]
        self.element_map = np.searchsorted(keys, pair_keys)
        if not np.array_equal(keys[np.minimum(self.element_map, self.nnz - 1)],
                              pair_keys):
            raise KeyError("an element node pair is not in the pattern")
        # index arrays in scipy's dtype that every CSR view of pattern data
        # shares; read-only, so an in-place sparse operation on a view raises
        idx = sp.get_index_dtype(maxval=self.nnz)
        self.csr_indices, self.csr_indptr = (
            a.astype(idx) for a in (self.indices, self.indptr))
        self.csr_indices.flags.writeable = self.csr_indptr.flags.writeable = False

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
    return mesh.cached("pattern", lambda: Pattern(mesh))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


# ----------------------------------------------------------------------
# element quadrature
# ----------------------------------------------------------------------

def quadrature(mesh):
    """Per-element quadrature, element index last; built once per mesh,
    C-contiguous and read-only.

    Q1 uses a 2x2 Gauss rule on the rectangle, P1 the 3-point edge-midpoint
    rule; both integrate the Galerkin bilinear forms of this package without
    quadrature error for the velocity fields supported here.

    Returns (points (2, nq, ne), weights (nq, ne), shape (nq, nloc),
    grads (2, nq, nloc, ne)): the x and y coordinates of the points and the
    x- and y-derivatives of the shape functions.
    """
    return mesh.cached("quadrature", lambda: _build_quadrature(mesh))


def _build_quadrature(mesh):
    pts = mesh.coords[mesh.elements]
    ne = mesh.n_elements
    if mesh.kind == Q1:
        wx, wy = mesh.element_rect_sides()
        ref = np.array([(gx, gy) for gy in _G2 for gx in _G2])
        nq = 4
        shape = np.empty((nq, 4))
        dshape = np.empty((2, nq, 4))
        for q, (xi, eta) in enumerate(ref):
            shape[q] = [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta]
            dshape[0, q] = [-(1 - eta), (1 - eta), eta, -eta]
            dshape[1, q] = [-(1 - xi), -xi, xi, (1 - xi)]
        sides = np.stack([wx, wy])                           # (2, ne)
        points = pts[:, 0].T[:, None, :] + ref.T[:, :, None] * sides[:, None, :]
        weights = np.broadcast_to((wx * wy) / 4.0, (nq, ne)).copy()
        grads = dshape[..., None] / sides[:, None, None, :]
    else:
        # reference midpoints (1/2,0), (1/2,1/2), (0,1/2); weight area/3 each
        ref = np.array([(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])
        nq = 3
        shape = np.column_stack([1 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]])
        v0, v1, v2 = pts[:, 0], pts[:, 1], pts[:, 2]
        jac = np.stack([v1 - v0, v2 - v0], axis=2)        # (ne, 2, 2), cols are edges
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        area = 0.5 * np.abs(det)
        points = (v0.T[:, None, :]
                  + ref[:, 0, None] * (v1 - v0).T[:, None, :]
                  + ref[:, 1, None] * (v2 - v0).T[:, None, :])
        weights = np.broadcast_to(area / 3.0, (nq, ne)).copy()
        dref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # (nloc, 2)
        inv = np.linalg.inv(jac)                                  # (ne, 2, 2)
        g = np.einsum("ld,edk->elk", dref, inv)                   # (ne, nloc, 2)
        grads = np.broadcast_to(g.transpose(2, 1, 0)[:, None],
                                (2, nq, 3, ne)).copy()
    arrays = tuple(np.ascontiguousarray(a)
                   for a in (points, weights, shape, grads))
    _read_only(*arrays)
    return arrays


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
    _, w, shape, _ = quadrature(mesh)
    return _assemble_pairs(mesh, _element_blocks(shape, w, shape[..., None]))


def _mass(mesh):
    """(M, lumped masses) of a mesh, assembled once per mesh; read-only."""
    def build():
        M = assemble_mass(mesh)
        lumped = M.row_sums()
        _read_only(M.data, lumped)
        return M, lumped
    return mesh.cached("mass", build)


def lumped_masses(mesh):
    """Row sums of the consistent mass: m_i = integral of phi_i (cached,
    read-only)."""
    return _mass(mesh)[1]


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
    (x, y), wq, shape, (gx, gy) = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->qe", shape, w[mesh.elements])
    vx, vy = vel.velocity(x, y, wq_vals)
    elem = _element_blocks(shape, wq * vx, gx)
    elem += _element_blocks(shape, wq * vy, gy)
    return _assemble_pairs(mesh, elem)


def _linear_convection(mesh, velocity):
    """F of a linear velocity model, assembled once per mesh and model;
    read-only."""
    def build():
        F = assemble_convection(mesh, velocity, np.zeros(mesh.n_nodes))
        _read_only(F.data)
        return F
    return mesh.cached(("linear_convection", velocity), build)


def assemble_convection_state_derivative(mesh, vel, w):
    """d(F(w)w)/dw minus F(w): the extra term phi_i phi_b (dv/dw . grad w)."""
    pat = pattern(mesh)
    if vel.is_linear:
        return SparseOperator.zeros(pat)
    (x, y), wq, shape, (gx, gy) = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    we = w[mesh.elements]
    wq_vals = np.einsum("qa,ea->qe", shape, we)
    dwx = np.einsum("qae,ea->qe", gx, we)
    dwy = np.einsum("qae,ea->qe", gy, we)
    dvx, dvy = vel.dvelocity_dw(x, y, wq_vals)
    coef = wq * (dvx * dwx + dvy * dwy)
    return _assemble_pairs(mesh, _element_blocks(shape, coef, shape[..., None]))


def convection_entry_derivative_tensor(mesh, vel, w):
    """Element tensor T[e,a,b,c] = d F_ab / d u_c restricted to element e.

    Needed by the exact Jacobian of the artificial viscosity when the
    transport velocity depends on the state.  Returns None for linear models.
    """
    if vel.is_linear:
        return None
    (x, y), wq, shape, (gx, gy) = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->qe", shape, w[mesh.elements])
    dvx, dvy = vel.dvelocity_dw(x, y, wq_vals)
    t = _element_blocks(shape, wq * dvx, gx, shape[..., None])
    t += _element_blocks(shape, wq * dvy, gy, shape[..., None])
    return t


def assemble_forcing(mesh, g):
    """Load vector g_i = integral of g phi_i, by element quadrature."""
    (x, y), wq, shape, _ = quadrature(mesh)
    vals = np.einsum("eq,qa->ea", (wq * g(x, y)).T, shape)
    return np.bincount(mesh.elements.ravel(), weights=vals.ravel(),
                       minlength=mesh.n_nodes)
