"""Shock detectors, graph-Laplacian artificial viscosity, and gradual mass
lumping.

Four detector variants are provided.  The two *gradient* detectors compare,
per node, the jump and the mean of directional difference quotients built
from each neighbor and its symmetric point; the two *edge* detectors use
plain nodal differences.  The smooth variants replace absolute values and
maxima with twice-differentiable surrogates so that the assembled operators
admit an exact Jacobian.

``edge_viscosity`` is the one edge-viscosity kernel: the residual takes nu
from it, and the exact Jacobian takes nu together with its partials.
``detector_derivative`` fills d alpha / d u on a ``DerivativeStructure``
that the first exact Jacobian on a mesh builds.

At a boundary node whose symmetric point does not exist, the missing value
is replaced by the mirrored ghost value 2 u_i - u_j, so the pair contributes
nothing to the jump but keeps its magnitude in the mean.  A one-sided sum
would flag every boundary node under a monotone normal profile as an
extremum and smear an O(h) band along characteristic boundaries, destroying
second-order convergence on smooth solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator, pattern, row_positions
from .mesh import row_norms

NONSMOOTH = "nonsmooth"
SIMPLIFIED = "simplified"
SMOOTH = "smooth"
SIMPLIFIED_SMOOTH = "simplified_smooth"
GALERKIN = "galerkin"
DETECTOR_KINDS = (NONSMOOTH, SIMPLIFIED, SMOOTH, SIMPLIFIED_SMOOTH, GALERKIN)

GRADUAL_LUMPING = "gradual_lumping"
SYMMETRIC_MASS = "symmetric_mass"
MASS_KINDS = (GRADUAL_LUMPING, SYMMETRIC_MASS)

_SMOOTH_KINDS = (SMOOTH, SIMPLIFIED_SMOOTH)
_EDGE_KINDS = (SIMPLIFIED, SIMPLIFIED_SMOOTH)

# denominator below this is treated as the "otherwise" branch of the
# non-smooth detectors; far below any physical gradient scale
_ZERO_DEN = 1e-300


@dataclass
class StabParams:
    """Regularization constants and variant selectors of the stabilization."""

    q: float = 25.0
    eps: float = 1e-4
    sigma: float = 0.0
    gamma: float = 1e-10
    detector: str = SMOOTH
    mass: str = GRADUAL_LUMPING
    beta_bound: float = 1.0

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.eps < 0 or self.sigma < 0 or self.gamma < 0:
            raise ValueError("eps, sigma and gamma must be nonnegative")
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.detector!r}")
        if self.mass not in MASS_KINDS:
            raise ValueError(f"unknown mass kind {self.mass!r}")
        if self.detector in _SMOOTH_KINDS and self.eps == 0 and self.gamma == 0:
            raise ValueError("smooth detectors need eps > 0 or gamma > 0")

    @property
    def is_smooth(self):
        return self.detector in _SMOOTH_KINDS


# ----------------------------------------------------------------------
# smooth primitives
# ----------------------------------------------------------------------

def smooth_abs_upper(x, eps):
    """sqrt(x^2 + eps), an upper C-infinity surrogate of |x|."""
    return np.sqrt(np.square(x) + eps)


def smooth_abs_lower(x, eps):
    """x^2 / sqrt(x^2 + eps), a lower surrogate of |x| (0 at x = 0)."""
    x = np.asarray(x, dtype=float)
    den = np.sqrt(np.square(x) + eps)
    return np.divide(np.square(x), den, out=np.zeros_like(den), where=den > 0)


def smooth_max(x, y, sigma):
    """(sqrt((x-y)^2 + sigma) + x + y) / 2 >= max(x, y).

    Grouped so the result is bitwise symmetric in (x, y).
    """
    return 0.5 * (np.sqrt(np.square(np.asarray(x) - y) + sigma) + (x + y))


def _smooth_max_and_dx(x, y, sigma):
    """smooth_max and its derivative in x, from one square root; the
    symmetric subgradient 1/2 at the kink when sigma = 0."""
    d = np.asarray(x, dtype=float) - y
    root = np.sqrt(np.square(d) + sigma)
    r = np.divide(d, root, out=np.zeros_like(root), where=root > 0)
    return 0.5 * (root + (x + y)), 0.5 * (1.0 + r)


def limiter_f(x):
    """C^2 limiter: 2x^4 - 5x^3 + 3x^2 + x below 1, then 1."""
    x = np.asarray(x, dtype=float)
    poly = ((2.0 * x - 5.0) * x + 3.0) * x * x + x
    return np.where(x < 1.0, poly, 1.0)


def limiter_df(x):
    x = np.asarray(x, dtype=float)
    dpoly = ((8.0 * x - 15.0) * x + 6.0) * x + 1.0
    return np.where(x < 1.0, dpoly, 0.0)


# ----------------------------------------------------------------------
# detector stencil
# ----------------------------------------------------------------------

class DetectorStencil:
    """Flattened directional terms of one detector family on a mesh.

    Every term t belongs to a node (``term_row``) and is a fixed linear
    functional of the nodal vector, z_t = (Z u)_t.  Gradient-family terms are
    the difference quotients toward each neighbor and its symmetric point
    (mirrored ghost at the boundary); edge-family terms are the plain
    differences u_i - u_j.
    """

    def __init__(self, mesh, family):
        i, j, has = mesh.pair_i, mesh.pair_j, mesh.has_sym
        if family == "edge":
            # neighbors without a symmetric counterpart get a mirrored ghost
            # term right after their own, so the signed sum stays
            # pair-balanced at boundaries
            pair = np.repeat(np.arange(i.size), np.where(has, 1, 2))
            sign = np.ones(pair.size)
            sign[1:][pair[1:] == pair[:-1]] = -1.0
            term_row = i[pair]
            cols = np.column_stack([term_row, j[pair]]).ravel()
            vals = np.column_stack([sign, -sign]).ravel()
            per_term = np.full(pair.size, 2)
        else:
            # term 2p is (u_j - u_i) / r; term 2p+1 is (u_sym - u_i) / dist,
            # or the ghost term, the negated main difference quotient
            r = row_norms(mesh.coords[j] - mesh.coords[i])
            n_sym = np.diff(mesh.sym_ptr)
            per_term = np.column_stack([np.full(i.size, 2),
                                        np.where(has, n_sym + 1, 2)]).ravel()
            start = (np.cumsum(per_term) - per_term)[0::2]
            cols = np.empty(per_term.sum(), dtype=np.int64)
            vals = np.empty(cols.size)
            cols[start], vals[start] = j, 1.0 / r
            cols[start + 1], vals[start + 1] = i, -1.0 / r
            ghost = start[~has] + 2
            cols[ghost], vals[ghost] = j[~has], -1.0 / r[~has]
            cols[ghost + 1], vals[ghost + 1] = i[~has], 1.0 / r[~has]
            owner = np.repeat(np.arange(i.size), n_sym)
            at = start[owner] + 2 + np.arange(owner.size) - mesh.sym_ptr[owner]
            cols[at], vals[at] = mesh.sym_cols, mesh.sym_coefs / mesh.sym_dist[owner]
            last = start[has] + 2 + n_sym[has]
            cols[last], vals[last] = i[has], -1.0 / mesh.sym_dist[has]
            term_row = np.repeat(i, 2)
        t = term_row.size
        rows = np.repeat(np.arange(t), per_term)
        self.n_terms = t
        self.term_row = term_row
        self.Z = sp.coo_matrix((vals, (rows, cols)),
                               shape=(t, mesh.n_nodes)).tocsr()
        self.n_nodes = mesh.n_nodes


def _stencil(mesh, family):
    key = ("detector_stencil", family)
    if key not in mesh._cache:
        mesh._cache[key] = DetectorStencil(mesh, family)
    return mesh._cache[key]


def _family(kind):
    return "edge" if kind in _EDGE_KINDS else "sym"


# stencil entries per block of the derivative structure's build; keeps its
# sort temporaries to a few MB
_BUILD_BLOCK = 1 << 15


class DerivativeStructure:
    """Fixed sparsity of d alpha / d u on a mesh, with the data maps that
    fill it.

    Row i holds the column of every stencil entry of node i's terms, in
    increasing order.  With N = aggregate Z, the constant derivative of each
    node's sum of z, and D = aggregate diag(|z|_eps') Z,

        d alpha = diag(c_num) N + diag(c_den) D,

    so the data is c_num[row] * ``jump`` + c_den[row] * D.  ``jump`` holds N
    on this structure, zero where the terms of a node cancel in their sum.
    ``zmap`` sends each stencil entry to its position, so that D is one
    bincount of Z's data times |z|_eps' of each entry's term.  Both give the
    values of the former sparse products bit for bit.  Built on the first
    derivative on a mesh, in blocks of nodes, so that the sort temporaries
    stay small.
    """

    def __init__(self, st):
        Z, n = st.Z, st.n_nodes
        # the terms of a node are consecutive, so are its stencil entries
        term_ptr = np.searchsorted(st.term_row, np.arange(n + 1))
        entry_ptr = Z.indptr[term_ptr]
        self.term_ptr = term_ptr
        idx = sp.get_index_dtype(maxval=max(Z.nnz, n, st.n_terms))
        self.zmap = np.empty(Z.nnz, dtype=idx)
        counts = np.zeros(n, dtype=np.int64)
        cols, jumps = [], []
        offset, lo = 0, 0
        while lo < n:
            hi = int(np.searchsorted(entry_ptr, entry_ptr[lo] + _BUILD_BLOCK,
                                     side="right")) - 1
            hi = min(max(hi, lo + 1), n)
            e = slice(entry_ptr[lo], entry_ptr[hi])
            node = np.repeat(st.term_row[term_ptr[lo]:term_ptr[hi]],
                             np.diff(Z.indptr[term_ptr[lo]:term_ptr[hi] + 1]))
            # distinct (node, column) pairs, sorted by node, then column
            ukey, inverse = np.unique((node - lo) * n + Z.indices[e],
                                      return_inverse=True)
            unode, col = np.divmod(ukey, n)
            self.zmap[e] = offset + inverse
            jumps.append(np.bincount(inverse, weights=Z.data[e],
                                     minlength=ukey.size))
            cols.append(col)
            counts[lo:hi] = np.bincount(unode, minlength=hi - lo)
            offset += ukey.size
            lo = hi
        self.shape = (n, n)
        self.indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices = np.concatenate(cols).astype(idx)
        self.jump = np.concatenate(jumps)
        self.nnz = offset
        for a in (self.indptr, self.indices):
            a.flags.writeable = False

    def matrix(self, Z, live, terms, c_num, c_den, d1):
        """d alpha as zero-free CSR with sorted rows.

        Only the ``live`` nodes, where the limiter is not flat, have entries;
        ``terms`` are their terms (``row_positions(term_ptr, live)``) and
        ``d1`` is |z|_eps' there.  c_num and c_den are per node.
        """
        n = self.shape[0]
        entries = row_positions(Z.indptr, terms)
        d_den = np.bincount(self.zmap[entries], minlength=self.nnz,
                            weights=Z.data[entries]
                            * np.repeat(d1, np.diff(Z.indptr)[terms]))
        pos = row_positions(self.indptr, live)
        rows = np.repeat(live, np.diff(self.indptr)[live])
        data = c_num[rows] * self.jump[pos] + c_den[rows] * d_den[pos]
        keep = data != 0.0
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
        return sp.csr_matrix((data[keep], self.indices[pos][keep], indptr),
                             shape=self.shape)


def _derivative_structure(mesh, family):
    key = ("derivative_structure", family)
    if key not in mesh._cache:
        mesh._cache[key] = DerivativeStructure(_stencil(mesh, family))
    return mesh._cache[key]


def _smooth_eps(mesh, params):
    """(eps, gamma) of the smooth ratio; the edge variant rescales both with
    the mesh size."""
    eps, gamma = params.eps, params.gamma
    if params.detector == SIMPLIFIED_SMOOTH:
        h = mesh.h_mean
        eps, gamma = h * h * eps, h * gamma
    return eps, gamma


def _smooth_ratio(st, z, lower, eps, gamma):
    """Smooth detector ratio (|sum z|_eps + gamma) / (sum |z|_eps + gamma)
    per node from the terms' |z|_eps, ``lower``, with the pieces of its
    derivative: (ratio, sum z, |sum z|_eps, denominator)."""
    num_sum = np.bincount(st.term_row, weights=z, minlength=st.n_nodes)
    den = np.bincount(st.term_row, weights=lower, minlength=st.n_nodes) + gamma
    upper = smooth_abs_upper(num_sum, eps)
    return (upper + gamma) / den, num_sum, upper, den


def detector_values(mesh, u, params):
    """Shock detector value per node, in [0, 1], for the configured variant."""
    if params.detector == GALERKIN:
        return np.zeros(mesh.n_nodes)
    st = _stencil(mesh, _family(params.detector))
    z = st.Z @ np.asarray(u, dtype=float)
    if params.is_smooth:
        eps, gamma = _smooth_eps(mesh, params)
        ratio = _smooth_ratio(st, z, smooth_abs_lower(z, eps), eps, gamma)[0]
        return limiter_f(ratio) ** params.q

    num_sum = np.bincount(st.term_row, weights=z, minlength=st.n_nodes)
    den = np.bincount(st.term_row, weights=np.abs(z), minlength=st.n_nodes)
    ratio = np.divide(np.abs(num_sum), den,
                      out=np.zeros(st.n_nodes), where=den > _ZERO_DEN)
    return np.clip(ratio, 0.0, 1.0) ** params.q


def detector_derivative(mesh, u, params):
    """(alpha, d alpha / d u) for the smooth variants; raises for the
    non-differentiable ones.

    d alpha is zero-free CSR data on the mesh's ``DerivativeStructure``,
    built on the first call: row i couples node i to the nodes of its terms,
    its neighbors and the nodes that interpolate its symmetric points, in
    increasing column order.  The rows of nodes where the limiter is flat
    are empty, and |z|_eps' is computed only for the terms of the other
    nodes.  The structure is that of the former sparse products
    diag(c_num) N + diag(c_den) D, and so are the values, except that
    |z|_eps and its derivative now share one square root, which moves
    d alpha in the last bits.  alpha is bit-identical to
    ``detector_values``.
    """
    if not params.is_smooth:
        raise ValueError("exact derivatives require a smooth detector variant")
    family = _family(params.detector)
    st = _stencil(mesh, family)
    z = st.Z @ np.asarray(u, dtype=float)
    eps, gamma = _smooth_eps(mesh, params)
    # |z|_eps = z^2 / root as in smooth_abs_lower; its derivative
    # z (z^2 + 2 eps) / (z^2 + eps)^1.5 takes the same square root
    sq = np.square(z)
    a = sq + eps
    root = np.sqrt(a)
    lower = np.divide(sq, root, out=np.zeros_like(root), where=root > 0)
    ratio, num_sum, upper, den = _smooth_ratio(st, z, lower, eps, gamma)
    fr = limiter_f(ratio)
    alpha = fr ** params.q

    common = params.q * fr ** (params.q - 1.0) * limiter_df(ratio)
    # d ratio = upper'/den d(sum z) - ratio/den d(sum |z|_eps)
    c_num = common * np.divide(num_sum, upper, out=np.zeros_like(upper),
                               where=upper > 0) / den
    c_den = -common * ratio / den
    # |z|_eps' only where the limiter is not flat
    ds = _derivative_structure(mesh, family)
    live = np.flatnonzero(common)
    t = row_positions(ds.term_ptr, live)
    d1 = np.divide(z[t] * (sq[t] + 2.0 * eps), a[t] * root[t],
                   out=np.zeros(t.size), where=root[t] > 0)
    return alpha, ds.matrix(st.Z, live, t, c_num, c_den, d1)


# ----------------------------------------------------------------------
# artificial viscosity and stabilization operator
# ----------------------------------------------------------------------

def edge_viscosity(pat, K, alphas, params, partials=False):
    """Edge viscosity nu_ij of a = alpha_i K_ij and b = alpha_j K_ji, in
    ``pat.edge_pos`` order.

    Non-smooth variants use max(a, b, 0); smooth variants use the
    regularized maximum with parameter sigma, first over (a, b) and then
    against zero.  With ``partials`` (smooth variants only) the result is
    (nu, (d nu/d a, d nu/d b)).
    """
    if K.pattern is not pat:
        raise ValueError("operator does not live on this mesh's sparsity pattern")
    a = alphas[pat.edge_rows] * K.data[pat.edge_pos]
    b = alphas[pat.edge_cols] * K.data[pat.edge_transpose_pos]
    if not params.is_smooth:
        if partials:
            raise ValueError("edge viscosity partials need a smooth variant")
        return np.maximum(np.maximum(a, b), 0.0)
    if not partials:
        return smooth_max(smooth_max(a, b, params.sigma), 0.0, params.sigma)
    c, dc_da = _smooth_max_and_dx(a, b, params.sigma)
    nu, dnu_dc = _smooth_max_and_dx(c, 0.0, params.sigma)
    return nu, (dnu_dc * dc_da, dnu_dc * (1.0 - dc_da))


def _edge_operator(pat, off, diag=None):
    """Operator with off-diagonal entries ``off`` (edge order) and diagonal
    ``diag``, by default the row sums of ``off``."""
    data = np.zeros(pat.nnz)
    data[pat.edge_pos] = off
    if diag is None:
        diag = np.bincount(pat.edge_rows, weights=off, minlength=pat.n)
    data[pat.diag_pos] = diag[pat.rows[pat.diag_pos]]
    return SparseOperator(pat, data)


def viscosity(mesh, F, alphas, params):
    """Edge viscosity from the detector and the transport operator, as a
    symmetric operator with row-sum diagonal."""
    pat = pattern(mesh)
    return _edge_operator(pat, edge_viscosity(pat, F, alphas, params))


def viscosity_symmetric_mass(mesh, F, M, alphas, dt, params):
    """Viscosity augmented with max(alpha_i M_ij, 0, alpha_j M_ji) / dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pat = pattern(mesh)
    extra = edge_viscosity(pat, M, alphas, params) / dt
    nu = viscosity(mesh, F, alphas, params)
    return SparseOperator(pat, nu.data + _edge_operator(pat, extra).data)


def assemble_B(mesh, nu):
    """Graph-Laplacian stabilization: B_ii = nu_ii, B_ij = -nu_ij."""
    pat = nu.pattern
    data = -nu.data
    data[pat.diag_pos] = nu.data[pat.diag_pos]
    return SparseOperator(pat, data)


def assemble_nonlinear_mass(mesh, M, lumped, alphas):
    """Gradually lumped mass: row i is (1 - alpha_i) M_i + alpha_i m_i e_i.

    Row sums equal the lumped masses for every alpha, so constants are
    propagated exactly.
    """
    pat = M.pattern
    alphas = np.asarray(alphas, dtype=float)
    data = (1.0 - alphas[pat.rows]) * M.data
    data[pat.diag_pos] += alphas * lumped
    return SparseOperator(pat, data)
