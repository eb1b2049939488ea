"""The residual's stabilization kernels as they were before the viscosity
moved onto half edges and the node sums onto sequential CSR products: every
edge's viscosity computed in both directions, and each sum over a node's
detector terms or a row's edges an ``np.bincount``.  Kept as the bit-for-bit
reference of ``stabilization.detector_values``, ``edge_viscosity``,
``viscosity`` and ``viscosity_symmetric_mass`` (the former nu operator and
``former_assemble_B``, its negated copy), and of
``ResidualSystem.assemble_operator`` and ``residual``.
"""

import numpy as np

from dmpfem import stabilization as stab
from dmpfem.assembly import pattern
from helpers import mass_operator, term_row


def _smooth_abs_lower(x, eps):
    x = np.asarray(x, dtype=float)
    den = np.sqrt(np.square(x) + eps)
    return np.divide(np.square(x), den, out=np.zeros_like(den), where=den > 0)


def _smooth_max_and_dx(x, y, sigma):
    d = np.asarray(x, dtype=float) - y
    root = np.sqrt(np.square(d) + sigma)
    r = np.divide(d, root, out=np.zeros_like(root), where=root > 0)
    return 0.5 * (root + (x + y)), 0.5 * (1.0 + r)


def former_smooth_ratio(st, z, lower, eps, gamma):
    rows = term_row(st)
    num_sum = np.bincount(rows, weights=z, minlength=st.n_nodes)
    den = np.bincount(rows, weights=lower, minlength=st.n_nodes) + gamma
    upper = stab.smooth_abs_upper(num_sum, eps)
    return (upper + gamma) / den, num_sum, upper, den


def former_detector_values(mesh, u, params):
    if params.detector == stab.GALERKIN:
        return np.zeros(mesh.n_nodes)
    st = stab._stencil(mesh, stab._family(params.detector))
    z = st.Z @ np.asarray(u, dtype=float)
    if params.is_smooth:
        eps, gamma = stab._smooth_eps(mesh, params)
        ratio = former_smooth_ratio(st, z, _smooth_abs_lower(z, eps),
                                    eps, gamma)[0]
        return stab.limiter_f(ratio) ** params.q

    rows = term_row(st)
    num_sum = np.bincount(rows, weights=z, minlength=st.n_nodes)
    den = np.bincount(rows, weights=np.abs(z), minlength=st.n_nodes)
    ratio = np.divide(np.abs(num_sum), den,
                      out=np.zeros(st.n_nodes), where=den > stab._ZERO_DEN)
    return np.clip(ratio, 0.0, 1.0) ** params.q


def former_edge_viscosity(pat, K, alphas, params, partials=False):
    a = alphas[pat.edge_rows] * K.data[pat.edge_pos]
    b = alphas[pat.edge_cols] * K.data[pat.edge_transpose_pos]
    if not params.is_smooth:
        return np.maximum(np.maximum(a, b), 0.0)
    if not partials:
        return stab.smooth_max(stab.smooth_max(a, b, params.sigma), 0.0,
                               params.sigma)
    c, dc_da = _smooth_max_and_dx(a, b, params.sigma)
    nu, dnu_dc = _smooth_max_and_dx(c, 0.0, params.sigma)
    return nu, (dnu_dc * dc_da, dnu_dc * (1.0 - dc_da))


def former_edge_operator(pat, off, diag=None):
    data = np.zeros(pat.nnz)
    data[pat.edge_pos] = off
    if diag is None:
        diag = np.bincount(pat.edge_rows, weights=off, minlength=pat.n)
    data[pat.diag_pos] = diag[pat.rows[pat.diag_pos]]
    return pat.csr(data)


def former_viscosity(mesh, F, alphas, params):
    pat = pattern(mesh)
    return former_edge_operator(pat, former_edge_viscosity(pat, F, alphas,
                                                           params))


def former_viscosity_symmetric_mass(mesh, F, M, alphas, dt, params):
    pat = pattern(mesh)
    extra = former_edge_viscosity(pat, M, alphas, params) / dt
    nu = former_viscosity(mesh, F, alphas, params)
    return pat.csr(nu.data + former_edge_operator(pat, extra).data)


def former_assemble_B(mesh, nu):
    pat = pattern(mesh)
    data = -nu.data
    data[pat.diag_pos] = nu.data[pat.diag_pos]
    return pat.csr(data)


def former_operator(sys, u):
    """``sys.assemble_operator(u)`` with the former kernels: (A, G)."""
    u = np.asarray(u, dtype=float)
    params = sys.params
    F = sys.convection(u)
    alphas = former_detector_values(sys.mesh, u, params)
    if params.detector == stab.GALERKIN:
        B = sys.pattern.csr(np.zeros(sys.pattern.nnz))
    else:
        if not sys.steady and params.mass == stab.SYMMETRIC_MASS:
            nu = former_viscosity_symmetric_mass(sys.mesh, F, sys.mass, alphas,
                                                 sys.dt, params)
        else:
            nu = former_viscosity(sys.mesh, F, alphas, params)
        B = former_assemble_B(sys.mesh, nu)
    data = F.data + B.data
    if sys.steady:
        G = sys.g.copy()
    else:
        M = mass_operator(sys, alphas)
        data = M.data * (1.0 / sys.dt) + data
        G = sys.g + (M @ sys.u_old) / sys.dt
    G[sys.dirichlet.nodes] = sys.dirichlet.values
    return sys._dirichlet_rows(data), G


def former_residual(sys, u):
    A, G = former_operator(sys, u)
    return A @ np.asarray(u, dtype=float) - G
