"""The exact Jacobian as it was assembled before it moved onto per-mesh
structures: a chain of scipy sparse products and sums whose symbolic work
ran on every call.  Kept as the reference for the structure, data and
solve-path tests of ``ResidualSystem.jacobian``.
"""

import functools

import numpy as np
import scipy.sparse as sp

from dmpfem import stabilization as stab
from dmpfem.assembly import (assemble_convection_state_derivative,
                             convection_entry_derivative_tensor)
from dmpfem.mesh import row_positions
from dmpfem.system import _without_zeros
from former_residual import former_assemble_B, former_edge_operator
from helpers import mass_operator, term_row


def former_detector_derivative(mesh, u, params):
    """(alpha, d alpha / d u) by diag(c_num) jump + diag(c_den) aggregate
    Z diag(|z|_eps')."""
    st = stab._stencil(mesh, stab._family(params.detector))
    t = st.n_terms
    aggregate = sp.coo_matrix((np.ones(t), (term_row(st), np.arange(t))),
                              shape=(mesh.n_nodes, t)).tocsr()
    jump_map = (aggregate @ st.Z).tocsr()
    z = st.Z @ np.asarray(u, dtype=float)
    eps, gamma = stab._smooth_eps(mesh, params)
    ratio, num_sum, upper, den = stab._smooth_ratio(
        st, z, stab.smooth_abs_lower(z, eps), eps, gamma)
    fr = stab.limiter_f(ratio)
    alpha = fr ** params.q
    common = params.q * fr ** (params.q - 1.0) * stab.limiter_df(ratio)
    c_num = common * np.divide(num_sum, upper, out=np.zeros_like(upper),
                               where=upper > 0) / den
    c_den = -common * ratio / den
    sq = np.square(z)
    d1_den = np.power(sq + eps, 1.5)
    d1 = np.divide(z * (sq + 2.0 * eps), d1_den, out=np.zeros_like(d1_den),
                   where=d1_den > 0)
    d_den = aggregate @ st.Z.multiply(d1[:, None])
    return alpha, (sp.diags(c_num) @ jump_map
                   + sp.diags(c_den) @ d_den).tocsr()


def _former_smooth_max_dx(x, y, sigma):
    d = np.asarray(x, dtype=float) - y
    den = np.sqrt(np.square(d) + sigma)
    r = np.divide(d, den, out=np.zeros_like(den), where=den > 0)
    return 0.5 * (1.0 + r)


def _former_edge_viscosity(pat, K, alphas, sigma):
    a = alphas[pat.edge_rows] * K.data[pat.edge_pos]
    b = alphas[pat.edge_cols] * K.data[pat.edge_transpose_pos]
    c = stab.smooth_max(a, b, sigma)
    nu = stab.smooth_max(c, 0.0, sigma)
    dc_da = _former_smooth_max_dx(a, b, sigma)
    dnu_dc = _former_smooth_max_dx(c, 0.0, sigma)
    return nu, (dnu_dc * dc_da, dnu_dc * (1.0 - dc_da))


def _former_flux_term(sys, W1, W2, T3):
    pat = sys.pattern
    w1_data = np.zeros(pat.nnz)
    w1_data[pat.edge_pos] = W1
    w2_data = np.zeros(pat.nnz)
    w2_data[pat.edge_pos] = W2
    emap = pat.element_map
    contrib = np.einsum("eab,eabc->eac", w1_data[emap], T3)
    contrib += np.einsum("eab,ebac->eac", w2_data[emap], T3)
    conn = sys.mesh.elements
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    return sp.coo_matrix((contrib.ravel(), (rows, cols)),
                         shape=(sys.n, sys.n)).tocsr()


def former_jacobian(sys, u, evaluation=None):
    """J(u) of a smooth-variant ``ResidualSystem``, assembled the former way.

    Takes the place of ``ResidualSystem.jacobian``, so it accepts the kept
    ``evaluation`` that Newton passes, and ignores it: every quantity is
    formed again from u."""
    u = np.asarray(u, dtype=float)
    pat, params = sys.pattern, sys.params
    F = sys.convection(u)
    Fp = assemble_convection_state_derivative(sys.mesh, sys.velocity, u)
    alphas, dalpha = former_detector_derivative(sys.mesh, u, params)
    symmetric_mass = not sys.steady and params.mass == stab.SYMMETRIC_MASS
    terms = [(F, 1.0)] + ([(sys.mass, sys.dt)] if symmetric_mass else [])
    du_edge = u[pat.edge_rows] - u[pat.edge_cols]
    parts = []
    for K, scale in terms:
        nu, (w_a, w_b) = _former_edge_viscosity(pat, K, alphas, params.sigma)
        if K is F:
            W = (du_edge * w_a * alphas[pat.edge_rows],
                 du_edge * w_b * alphas[pat.edge_cols])
        parts.append((
            nu / scale,
            du_edge * w_b * K.data[pat.edge_transpose_pos] / scale,
            np.bincount(pat.edge_rows,
                        weights=du_edge * w_a * K.data[pat.edge_pos] / scale,
                        minlength=sys.n)))
    nu_edge, p_off, p_diag = (functools.reduce(np.add, x) for x in zip(*parts))
    B = former_assemble_B(sys.mesh, former_edge_operator(pat, nu_edge))
    J = _without_zeros(pat.csr(F.data + Fp.data + B.data))
    P = former_edge_operator(pat, p_off, diag=p_diag)
    J = J + P @ dalpha
    T3 = convection_entry_derivative_tensor(sys.mesh, sys.velocity, u)
    if T3 is not None:
        J = J + _former_flux_term(sys, *W, T3)
    if not sys.steady:
        J = J + mass_operator(sys, alphas) / sys.dt
        if not symmetric_mass:
            du = u - sys.u_old
            wvec = (sys.lumped * du - sys.mass @ du) / sys.dt
            J = J + sp.diags(wvec) @ dalpha
    nodes = sys.dirichlet.nodes
    J.data[row_positions(J.indptr, nodes)] = 0.0
    J[nodes, nodes] = 1.0
    J.eliminate_zeros()
    return J
