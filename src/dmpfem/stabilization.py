"""Shock detectors, graph-Laplacian artificial viscosity, and gradual mass
lumping.

Four detector variants are provided.  The two *gradient* detectors compare,
per node, the jump and the mean of directional difference quotients built
from each neighbor and its symmetric point; the two *edge* detectors use
plain nodal differences.  The smooth variants replace absolute values and
maxima with twice-differentiable surrogates so that the assembled operators
admit an exact Jacobian.

``edge_viscosity`` is the one edge-viscosity kernel: ``viscosity`` turns
its nu into the residual's B in place (nu's CSR, its row sums, the data
negated and the row sums written back onto the diagonal), and the exact
Jacobian, which starts from the residual's B, takes only its partials, in
its one evaluation of the smooth maxima.  Edge (j, i)
sees the arguments of edge (i, j) swapped, and the maxima are symmetric to
the bit, so the kernel evaluates the i < j half of the edges
(``Pattern.half_rows`` ...) and gathers the result back through
``Pattern.edge_half``, and the partials, whose roles swap with the
direction, through ``Pattern.edge_half_oriented``.  ``detector_derivative``
forms d alpha / d u from scipy's sparse products on the rows where the
limiter is not flat.  It takes the detector's state (``_smooth_detector``) as
the residual's ``detector_values`` left it, and forms again only z = Z u and,
on the live nodes' terms, |z|_eps'.

Sums over a node's detector terms are one product with the stencil's CSR of
ones, ``DetectorStencil.S``, and an operator's row sums one product of its
CSR with ones (``_edge_operator``).  Both add in storage order from +0.0,
the arithmetic of the ``np.bincount`` they replace, so results are the same
to the bit, and at 96^2 they take a third (node sums) and a half to two
thirds (row sums) of bincount's time.

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

from .assembly import pattern
from .mesh import _offsets, row_norms

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
    """x^2 / sqrt(x^2 + eps), a lower surrogate of |x| (0 at x = 0).  The
    root is taken in the buffer of x^2 + eps: at 96^2 a fresh array of the
    detector's terms costs about as much as the arithmetic on it."""
    x = np.asarray(x, dtype=float)
    sq = np.square(x)
    root = np.add(sq, eps, out=np.empty(x.shape))
    np.sqrt(root, out=root)
    return _quotient(sq, root, root, eps)


def _quotient(num, den, root, eps):
    """num / den, and 0 where ``root``, a sqrt(. + eps) that den vanishes
    with, is 0.  root >= sqrt(eps) > 0 when eps > 0, so only eps = 0 needs
    the mask."""
    if eps > 0:
        return num / den
    return np.divide(num, den, out=np.zeros_like(den), where=root > 0)


def smooth_max(x, y, sigma):
    """(sqrt((x-y)^2 + sigma) + x + y) / 2 >= max(x, y).

    Grouped so the result is bitwise symmetric in (x, y).
    """
    return 0.5 * (np.sqrt(np.square(np.asarray(x) - y) + sigma) + (x + y))


def _smooth_max_and_slope(x, y, sigma):
    """smooth_max and r = (x - y) / sqrt((x - y)^2 + sigma), from one square
    root: the derivatives in x and y are (1 + r) / 2 and (1 - r) / 2.  r = 0
    at the kink when sigma = 0, the symmetric subgradient.  Swapping x and y
    gives the same maximum and -r, bit for bit."""
    d = np.asarray(x, dtype=float) - y
    root = np.sqrt(np.square(d) + sigma)
    return 0.5 * (root + (x + y)), _quotient(d, root, root, sigma)


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

    Every term t belongs to a node and is a fixed linear functional of the
    nodal vector, z_t = (Z u)_t; Z is a CSR built from the terms' runs of
    entries, and ``sum_duplicates`` sorts each row from their order.
    Gradient-family terms are the difference quotients toward each neighbor
    and its symmetric point (mirrored ghost at the boundary); edge-family
    terms are the plain differences u_i - u_j.

    The terms of a node are consecutive.  ``S`` is the n x t CSR of ones
    whose row i spans node i's terms, so ``S @ z`` sums each node's terms in
    order from +0.0: ``np.bincount`` over the terms' nodes, bit for bit.
    Its ``indptr`` is the one per-term node map held.
    """

    def __init__(self, mesh, family):
        i, j, has, n = mesh.pair_i, mesh.pair_j, mesh.has_sym, mesh.n_nodes
        # scipy's index dtype for a bound on Z's entries and columns
        idx = sp.get_index_dtype(maxval=4 * i.size + mesh.sym_cols.size + n)
        if family == "edge":
            # neighbors without a symmetric counterpart get a mirrored ghost
            # term right after their own, so the signed sum stays
            # pair-balanced at boundaries
            pair = np.repeat(np.arange(i.size), np.where(has, 1, 2))
            sign = np.ones(pair.size)
            sign[1:][pair[1:] == pair[:-1]] = -1.0
            term_row = i[pair]
            cols = np.column_stack([term_row, j[pair]]).ravel().astype(idx)
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
            cols = np.empty(per_term.sum(), dtype=idx)
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
        self.n_terms, self.n_nodes = t, n
        self.Z = sp.csr_matrix((vals, cols, _offsets(per_term, idx)),
                               shape=(t, n))
        self.Z.sum_duplicates()
        indptr = _offsets(np.bincount(term_row, minlength=n), idx)
        self.S = sp.csr_matrix((np.ones(t), np.arange(t, dtype=idx), indptr),
                               shape=(n, t))
        for a in (self.S.data, self.S.indices, self.S.indptr):
            a.flags.writeable = False


def _stencil(mesh, family):
    return mesh.cached(("detector_stencil", family),
                       lambda: DetectorStencil(mesh, family))


def _family(kind):
    return "edge" if kind in _EDGE_KINDS else "sym"


def _jump(mesh, family):
    """N = S Z, the constant derivative of each node's sum of terms, with
    sorted rows and read-only arrays; built on the first exact Jacobian on
    a mesh."""
    def build():
        st = _stencil(mesh, family)
        N = st.S @ st.Z
        N.sort_indices()
        for a in (N.data, N.indices, N.indptr):
            a.flags.writeable = False
        return N
    return mesh.cached(("derivative_structure", family), build)


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
    num_sum = st.S @ z
    den = st.S @ lower
    den += gamma
    upper = smooth_abs_upper(num_sum, eps)
    return (upper + gamma) / den, num_sum, upper, den


def _smooth_detector(mesh, u, params):
    """The smooth detector's state at u: (stencil, eps, and per node ratio,
    sum z, |sum z|_eps, denominator, f(ratio), alpha)."""
    st = _stencil(mesh, _family(params.detector))
    z = st.Z @ np.asarray(u, dtype=float)
    eps, gamma = _smooth_eps(mesh, params)
    node = _smooth_ratio(st, z, smooth_abs_lower(z, eps), eps, gamma)
    fr = limiter_f(node[0])
    return (st, eps) + node + (fr, fr ** params.q)


def detector_values(mesh, u, params, state=False):
    """Shock detector value per node, in [0, 1], for the configured variant.

    With ``state``, (alpha, state): for the smooth variants the state of
    ``_smooth_detector``, which ``detector_derivative`` at the same u takes
    instead of a forward pass of its own; else None.
    """
    smooth = None
    if params.detector == GALERKIN:
        alpha = np.zeros(mesh.n_nodes)
    elif params.is_smooth:
        smooth = _smooth_detector(mesh, u, params)
        alpha = smooth[-1]
    else:
        st = _stencil(mesh, _family(params.detector))
        z = st.Z @ np.asarray(u, dtype=float)
        num_sum = st.S @ z
        den = st.S @ np.abs(z)
        ratio = np.divide(np.abs(num_sum), den,
                          out=np.zeros(st.n_nodes), where=den > _ZERO_DEN)
        alpha = np.clip(ratio, 0.0, 1.0) ** params.q
    return (alpha, smooth) if state else alpha


def detector_derivative(mesh, u, params, state):
    """(alpha, d alpha / d u) for the smooth variants; raises for the
    non-differentiable ones.

    With N = S Z, the constant derivative of each node's sum of terms, and
    D = S diag(|z|_eps') Z,

        d alpha = diag(c_num) N + diag(c_den) D,

    formed by scipy's sparse products and sum on the rows of the nodes
    where the limiter is not flat; the other rows are empty.  ``state`` is
    the detector state that ``detector_values(..., state=True)`` returned at
    u, so no forward pass runs here: only z = Z u is formed again, and
    |z|_eps' only for the terms of the live nodes.  N is
    cached per mesh on the first call.  Each product adds a node's entries
    in term order from +0.0 and the sum drops exact zeros, so the result is
    canonical, zero-free CSR.  Row i couples node i to the nodes of its
    terms, its neighbors and the nodes that interpolate its symmetric
    points.  alpha is bit-identical to ``detector_values``.
    """
    if not params.is_smooth:
        raise ValueError("exact derivatives require a smooth detector variant")
    st, eps, ratio, num_sum, upper, den, fr, alpha = state

    common = params.q * fr ** (params.q - 1.0) * limiter_df(ratio)
    # d ratio = upper'/den d(sum z) - ratio/den d(sum |z|_eps)
    c_num = common * np.divide(num_sum, upper, out=np.zeros_like(upper),
                               where=upper > 0) / den
    c_den = -common * ratio / den
    live = np.flatnonzero(common)
    S_live = st.S[live]
    t = S_live.indices
    # |z|_eps = z^2 / root; its derivative z (z^2 + 2 eps) / (z^2 + eps)^1.5
    # takes the same square root
    z_t = (st.Z @ np.asarray(u, dtype=float))[t]
    sq_t = np.square(z_t)
    root_t = np.sqrt(sq_t + eps)
    d1 = _quotient(z_t * (sq_t + 2.0 * eps), (sq_t + eps) * root_t, root_t,
                   eps)
    D = sp.csr_matrix((d1, t, S_live.indptr), shape=S_live.shape) @ st.Z
    D.sort_indices()
    D.data *= np.repeat(c_den[live], np.diff(D.indptr))
    N = _jump(mesh, _family(params.detector))[live]
    N.data *= np.repeat(c_num[live], np.diff(N.indptr))
    d = N + D
    indptr = np.zeros(st.n_nodes + 1, dtype=d.indptr.dtype)
    indptr[1:][live] = np.diff(d.indptr)
    np.cumsum(indptr, out=indptr)
    return alpha, sp.csr_matrix((d.data, d.indices, indptr),
                                shape=(st.n_nodes, st.n_nodes))


# ----------------------------------------------------------------------
# artificial viscosity and stabilization operator
# ----------------------------------------------------------------------

def edge_viscosity(pat, K, alphas, params, partials=False):
    """Edge viscosity nu_ij of a = alpha_i K_ij and b = alpha_j K_ji, in
    ``pat.edge_pos`` order; ``K`` is a CSR made by ``pat.csr``.

    Non-smooth variants use max(a, b, 0); smooth variants use the
    regularized maximum with parameter sigma, first over (a, b) and then
    against zero.  With ``partials`` (smooth variants only) the result is
    (nu, (d nu/d a, d nu/d b)).

    Edge (j, i) has a and b swapped, and both maxima are symmetric to the
    bit, so nu is computed once per half edge and gathered back.  Swapping
    also negates the slope r of the inner maximum exactly, so (j, i) takes
    its partials from (1 - r) / 2 where (i, j) takes them from (1 + r) / 2.
    """
    if not (np.may_share_memory(K.indices, pat.csr_indices)
            and np.may_share_memory(K.indptr, pat.csr_indptr)):
        raise ValueError("operator does not live on this mesh's sparsity pattern")
    # np.take: fancy indexing would first copy the int32 maps to intp
    a = np.take(alphas, pat.half_rows) * np.take(K.data, pat.half_pos)
    b = np.take(alphas, pat.half_cols) * np.take(K.data, pat.half_transpose_pos)
    h = pat.edge_half
    if not params.is_smooth:
        if partials:
            raise ValueError("edge viscosity partials need a smooth variant")
        return np.take(np.maximum(np.maximum(a, b), 0.0), h)
    if not partials:
        return np.take(smooth_max(smooth_max(a, b, params.sigma), 0.0,
                                  params.sigma), h)
    c, r = _smooth_max_and_slope(a, b, params.sigma)
    nu, r_c = _smooth_max_and_slope(c, 0.0, params.sigma)
    dnu_dc = 0.5 * (1.0 + r_c)
    # the forward edges' slope weights, then the reversed edges'
    pq = np.concatenate((0.5 * (1.0 + r), 0.5 * (1.0 - r)))
    dnu_dc = np.concatenate((dnu_dc, dnu_dc))
    w_a = np.take(dnu_dc * pq, pat.edge_half_oriented)
    w_b = np.take(dnu_dc * (1.0 - pq), pat.edge_half_oriented)
    return np.take(nu, h), (w_a, w_b)


def _edge_operator(pat, off, diag=None):
    """CSR with off-diagonal entries ``off`` (edge order) and diagonal
    ``diag``, by default the row sums of ``off``: the CSR times ones while
    its diagonal holds +0.0, each row added in storage order from +0.0 as
    ``np.bincount`` would (a sum begun at +0.0 is never -0.0)."""
    data = np.zeros(pat.nnz)
    data[pat.edge_pos] = off
    A = pat.csr(data)
    data[pat.diag_pos] = A @ np.ones(pat.n) if diag is None else diag
    return A


def _laplacian(pat, nu):
    """B_ij = -nu_ij, B_ii = nu_ii from nu's operator, in place."""
    diag = nu.data[pat.diag_pos]
    np.negative(nu.data, out=nu.data)
    nu.data[pat.diag_pos] = diag
    return nu


def viscosity(mesh, F, alphas, params):
    """Stabilization operator B of the edge viscosity nu of the detector
    and the transport operator F: symmetric, with zero row sums."""
    pat = pattern(mesh)
    nu = _edge_operator(pat, edge_viscosity(pat, F, alphas, params))
    return _laplacian(pat, nu)


def viscosity_symmetric_mass(mesh, F, M, alphas, dt, params):
    """B~: B of nu augmented with max(alpha_i M_ij, 0, alpha_j M_ji) / dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pat = pattern(mesh)
    nu = _edge_operator(pat, edge_viscosity(pat, F, alphas, params))
    nu.data += _edge_operator(pat, edge_viscosity(pat, M, alphas, params)
                              / dt).data
    return _laplacian(pat, nu)


def assemble_nonlinear_mass(mesh, M, lumped, alphas):
    """Gradually lumped mass: row i is (1 - alpha_i) M_i + alpha_i m_i e_i.

    Row sums equal the lumped masses for every alpha, so constants are
    propagated exactly.
    """
    pat = pattern(mesh)
    alphas = np.asarray(alphas, dtype=float)
    data = (1.0 - alphas[pat.rows]) * M.data
    data[pat.diag_pos] += alphas * lumped
    return pat.csr(data)
