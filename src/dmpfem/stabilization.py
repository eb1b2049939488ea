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

from .assembly import SparseOperator, pattern
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


def _smooth_abs_lower_d1(x, eps):
    x = np.asarray(x, dtype=float)
    den = np.power(np.square(x) + eps, 1.5)
    num = x * (np.square(x) + 2.0 * eps)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def smooth_max(x, y, sigma):
    """(sqrt((x-y)^2 + sigma) + x + y) / 2 >= max(x, y).

    Grouped so the result is bitwise symmetric in (x, y).
    """
    return 0.5 * (np.sqrt(np.square(np.asarray(x) - y) + sigma) + (x + y))


def _smooth_max_dx(x, y, sigma):
    """d smooth_max / dx; symmetric subgradient 1/2 at the kink when sigma=0."""
    d = np.asarray(x, dtype=float) - y
    den = np.sqrt(np.square(d) + sigma)
    r = np.divide(d, den, out=np.zeros_like(den), where=den > 0)
    return 0.5 * (1.0 + r)


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
        ones = np.ones(t)
        self.aggregate = sp.coo_matrix((ones, (self.term_row, np.arange(t))),
                                       shape=(mesh.n_nodes, t)).tocsr()
        self.jump_map = (self.aggregate @ self.Z).tocsr()  # constant d(sum z)/du
        self.n_nodes = mesh.n_nodes


def _stencil(mesh, family):
    key = ("detector_stencil", family)
    if key not in mesh._cache:
        mesh._cache[key] = DetectorStencil(mesh, family)
    return mesh._cache[key]


def _family(kind):
    return "edge" if kind in _EDGE_KINDS else "sym"


def _smooth_ratio(mesh, st, z, params):
    """Smooth detector ratio (|sum z|_eps + gamma) / (sum |z|_eps + gamma)
    per node, with the pieces of its derivative: (ratio, sum z, |sum z|_eps,
    denominator, eps).  The edge variant rescales eps and gamma with the
    mesh size."""
    eps, gamma = params.eps, params.gamma
    if params.detector == SIMPLIFIED_SMOOTH:
        h = mesh.h_mean
        eps, gamma = h * h * eps, h * gamma
    num_sum = np.bincount(st.term_row, weights=z, minlength=st.n_nodes)
    den = np.bincount(st.term_row, weights=smooth_abs_lower(z, eps),
                      minlength=st.n_nodes) + gamma
    upper = smooth_abs_upper(num_sum, eps)
    return (upper + gamma) / den, num_sum, upper, den, eps


def detector_values(mesh, u, params):
    """Shock detector value per node, in [0, 1], for the configured variant."""
    if params.detector == GALERKIN:
        return np.zeros(mesh.n_nodes)
    st = _stencil(mesh, _family(params.detector))
    z = st.Z @ np.asarray(u, dtype=float)
    if params.is_smooth:
        return limiter_f(_smooth_ratio(mesh, st, z, params)[0]) ** params.q

    num_sum = np.bincount(st.term_row, weights=z, minlength=st.n_nodes)
    den = np.bincount(st.term_row, weights=np.abs(z), minlength=st.n_nodes)
    ratio = np.divide(np.abs(num_sum), den,
                      out=np.zeros(st.n_nodes), where=den > _ZERO_DEN)
    return np.clip(ratio, 0.0, 1.0) ** params.q


def detector_derivative(mesh, u, params):
    """(alpha, d alpha / d u) for the smooth variants.

    The derivative is a CSR matrix supported on the adjacency graph; raises
    for the non-differentiable variants.
    """
    if not params.is_smooth:
        raise ValueError("exact derivatives require a smooth detector variant")
    st = _stencil(mesh, _family(params.detector))
    z = st.Z @ np.asarray(u, dtype=float)
    ratio, num_sum, upper, den, eps = _smooth_ratio(mesh, st, z, params)
    fr = limiter_f(ratio)
    alpha = fr ** params.q

    common = params.q * fr ** (params.q - 1.0) * limiter_df(ratio)
    # d ratio = upper'/den dJ - ratio/den dD
    c_num = common * np.divide(num_sum, upper, out=np.zeros_like(upper),
                               where=upper > 0) / den
    c_den = -common * ratio / den
    d_den = st.aggregate @ st.Z.multiply(_smooth_abs_lower_d1(z, eps)[:, None])
    dalpha = (sp.diags(c_num) @ st.jump_map + sp.diags(c_den) @ d_den).tocsr()
    return alpha, dalpha


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
    c = smooth_max(a, b, params.sigma)
    nu = smooth_max(c, 0.0, params.sigma)
    if not partials:
        return nu
    dc_da = _smooth_max_dx(a, b, params.sigma)
    dnu_dc = _smooth_max_dx(c, 0.0, params.sigma)
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
