"""Nonlinear residual of one implicit transport step (or its steady limit).

Transient, gradually lumped mass:
    T(u) = M(u)(u - u_old)/dt + [F(u) + B(u)] u - g
Transient, constant mass with mass-compensated viscosity:
    T(u) = M (u - u_old)/dt + [F(u) + B~(u)] u - g
Steady:
    T(u) = [F(u) + B(u)] u - g

Inflow rows are replaced strongly: row i of the operator becomes the identity
and the residual entry u_i - u_D(x_i).  A(u) is one data vector on the shared
``Pattern``, whose Dirichlet rows are replaced by index (positions precomputed
per system); the zeros this stores add nothing to T(u), and the Picard solve
drops them on a copy so that SuperLU orders the same zero-free structure as a
sparse sum would give it.  The Jacobian is exact for the smooth detector
variants, including the detector chain rule through the regularized maxima
and the state dependence of the transport operator; its sparsity extends to
the distance-2 adjacency because every detector value depends on the whole
neighborhood.  The residual and the Jacobian take the viscosity from the same
kernel, ``stabilization.edge_viscosity``, the Jacobian with its partials.

J is one sparse product and one sum, J = A_on + P @ d alpha, where A_on is
data on the pattern and d alpha is data on a structure built once per mesh,
on the first Jacobian (``stabilization.DerivativeStructure``); set-up and
Anderson never build it.  Its values are those of the former assembly, a
chain of four to seven sparse sums and products, up to the order of the
summation.  J is canonical CSR: zero-free, each row's columns sorted.  It
stores the entries of the former assembly, except where a partial sum of
that assembly, such as F + F' + B with sigma = 0, was exactly zero and
dropped early, or where the two summation orders round an entry to zero
differently.

Both solves go through ``solve_linear``, which first gives every matrix one
cycle of GMRES(60) right-preconditioned by its diagonal (Jacobi), whose
result is kept only at a relative residual of 1e-12.  A transient matrix,
Newton's J or the Picard A(u), is M/dt plus transport terms that are small
beside it at the time steps used (median off-diagonal row sum 0.05 of the
diagonal of J on the THREE_BODY_ROTATION benchmark), so M/dt dominates the
diagonal and the cycle converges in about 30 iterations: 13 ms against 64 ms
for the factorization of J at 96^2, and every rotation J and every Picard
A(u) of the BURGERS2D benchmark was taken.  A steady matrix has no M/dt
term.  Every 10 iterations the cycle checks that the rate of the last 10,
kept up, reaches the tolerance within 60.  The 15 J of the
STRAIGHT_DISCONTINUITY benchmark fail the first check, after about 2.5 ms.
A steady A(u) of that problem passes it, then stalls near a relative
residual of 1e-3 and fails the second: 6 ms per operator at 96^2, against
54 ms for all 60 iterations (the first 60 Picard operators of the STRAIGHT
q=4 refinement study).  A cycle that would leave such a plateau late is
given up too: one operator at 24^2, which GMRES solved in 48 iterations.
Such a matrix, and any with n <= 60 or a zero diagonal entry, is
factorized.

J is factorized in SuperLU's symmetric mode on a nested-dissection ordering
of the mesh's distance-2 graph, computed once per mesh (``jacobian_order``).
The steady J has weak diagonals: with a minimum-degree ordering made afresh
for each J, its pivots left the diagonal on the early iterates and the fill
grew to 2.7 M at 96^2; the separators confine that pivoting to subdomains
(at most 1.5 M), and the ordering is no longer made per factorization.
A(u) is factorized with COLAMD and partial pivoting, bit-identical to
``spsolve``: symmetric mode moves the last bits of each Picard sweep, and
Anderson's iteration count follows them (411 -> 522 on the BURGERS2D
benchmark), where Newton's quadratic convergence absorbs them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import stabilization as stab
from .assembly import (SparseOperator, assemble_convection,
                       assemble_convection_state_derivative, assemble_mass,
                       convection_entry_derivative_tensor, pattern,
                       row_positions)


class SingularSystemError(RuntimeError):
    """The inner linear solve hit a (numerically) singular operator."""


@dataclass(frozen=True)
class AdmissibleBounds:
    """Global bounds from the extrema of initial and inflow data."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class DirichletBC:
    nodes: np.ndarray
    values: np.ndarray


_KRYLOV = 60        # GMRES(m): Krylov vectors in the one cycle tried
_PROBE = 10         # iterations between checks that the recent rate suffices
_KRYLOV_RTOL = 1e-12


def _jacobi_gmres(A, b):
    """x with ||A x - b|| <= 1e-12 ||b|| from one cycle of GMRES(m), or None.

    GMRES (Saad & Schultz, SISSC 1986) from x = 0, right-preconditioned by
    diag(A), so that it minimizes the true residual; classical Gram-Schmidt
    run twice, Givens rotations for the least-squares residual.  None when
    n <= m (within n iterations GMRES would solve a small singular but
    consistent system instead of letting the factorization report it), when
    a diagonal entry is zero, when at a multiple of ``_PROBE`` iterations
    the rate of the last ``_PROBE`` cannot reach the tolerance within m, when
    m iterations do not reach it, or when the residual of the formed x
    misses it.
    """
    n, m = b.size, _KRYLOV
    d = A.diagonal()
    beta = np.linalg.norm(b)
    if n <= m or not np.all(d) or not 0.0 < beta < np.inf:
        return None
    target = _KRYLOV_RTOL * beta
    V = np.empty((m + 1, n))
    R = np.zeros((m, m))
    cs, sn = np.empty(m), np.empty(m)
    g = np.zeros(m + 1)
    V[0], g[0] = b / beta, beta
    checked = 1.0   # relative residual at the last rate check
    for k in range(m):
        w = A @ (V[k] / d)
        h = V[:k + 1] @ w
        w -= h @ V[:k + 1]
        c = V[:k + 1] @ w
        w -= c @ V[:k + 1]
        h += c
        h_next = np.linalg.norm(w)
        for i in range(k):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              cs[i] * h[i + 1] - sn[i] * h[i])
        r = np.hypot(h[k], h_next)
        if r == 0.0:
            return None
        cs[k], sn[k] = h[k] / r, h_next / r
        h[k] = r
        R[:k + 1, k] = h
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        if abs(g[k + 1]) <= target:
            y = scipy.linalg.solve_triangular(R[:k + 1, :k + 1], g[:k + 1])
            x = (y @ V[:k + 1]) / d
            return x if np.linalg.norm(A @ x - b) <= target else None
        # every _PROBE iterations: the rate of the last _PROBE, kept for the
        # rest of the cycle, would not get there
        if (k + 1) % _PROBE == 0:
            rel = abs(g[k + 1]) / beta
            if rel * (rel / checked) ** ((m - k - 1) / _PROBE) > _KRYLOV_RTOL:
                return None
            checked = rel
        V[k + 1] = w / h_next
    return None


def solve_linear(A, b, order=None):
    """(x, factorized) for A x = b; raises SingularSystemError on breakdown.

    First one cycle of GMRES(60) right-preconditioned by diag(A), skipped
    for n <= 60 or a zero diagonal entry, abandoned at every tenth iteration
    when the rate of the last ten cannot reach the tolerance within 60, and
    its x returned only
    when ||A x - b|| <= 1e-12 ||b||; ``factorized`` is then False.
    Otherwise, in the same call, A is factorized and ``factorized`` is True
    (see the module docstring for which matrices take which path).  With
    ``order``, a permutation of the unknowns, as Newton passes for J, A is
    permuted symmetrically by it and factorized in SuperLU's symmetric mode,
    a diagonal pivot kept unless below 0.01 of its column's largest entry.
    Without it, as for A(u), SuperLU with COLAMD and partial pivoting, the
    result bit-identical to ``spsolve``.  A singular A raises through the
    factorization, except that a large, exactly singular A with b in its
    range may return a GMRES solution instead.
    """
    x = _jacobi_gmres(A, b)
    if x is not None:
        return x, False
    try:
        if order is not None:
            # rows permuted in CSR, columns in CSC: major-axis selections
            P = A.tocsr()[order].tocsc()[:, order]
            y = spla.splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                          options=dict(SymmetricMode=True)).solve(b[order])
            x = np.empty_like(y)
            x[order] = y
        else:
            x = spla.splu(A.tocsc()).solve(b)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("linear solve produced non-finite values")
    return x, True


_LEAF = 16   # parts of at most this many nodes keep their natural order


def jacobian_order(mesh):
    """Nested-dissection ordering of the mesh's distance-2 graph (cached).

    Recursive coordinate bisection (George, *Nested dissection of a regular
    finite element mesh*, SINUM 1973): a part is split at the median of its
    wider coordinate extent, and its separator is the set of lower-half
    nodes within distance 2 of the upper half, because J couples every pair
    of nodes at distance 2.  A part is ordered as [lower-half interior, upper
    half, separator], recursively; parts of at most ``_LEAF`` nodes keep their
    natural order.  All parts of one level are split together, and the
    separator is found by two neighbor passes over the pattern; the
    distance-2 graph is never formed.  Built on the first Newton solve on a
    mesh, never during set-up.
    """
    if "jacobian_order" not in mesh._cache:
        mesh._cache["jacobian_order"] = _nested_dissection(
            pattern(mesh), mesh.coords)
    return mesh._cache["jacobian_order"]


def _nested_dissection(pat, coords):
    n = pat.n
    nodes = np.arange(n)                 # nodes not yet placed
    part = np.zeros(n, dtype=np.intp)    # their part at this level
    digits = []     # per level: 0 lower interior, 1 upper half, 2 separator
    while nodes.size:
        big = np.bincount(part)[part] > _LEAF
        nodes = nodes[big]
        if not nodes.size:
            break
        part = np.unique(part[big], return_inverse=True)[1]
        size = np.bincount(part)
        start = np.cumsum(size) - size
        xy = coords[nodes[np.argsort(part, kind="stable")]]
        wide = np.argmax(np.maximum.reduceat(xy, start)
                         - np.minimum.reduceat(xy, start), axis=1)
        key = coords[nodes, wide[part]]
        s = np.lexsort((key, part))
        median = key[s][start + size // 2][part]
        lower = key < median
        # more than half of a part at its smallest key: split at <= instead;
        # where every key is equal (coincident nodes), by rank, so that every
        # part shrinks
        tied = np.bincount(part, weights=lower)[part] == 0
        lower[tied] = key[tied] <= median[tied]
        tied = np.bincount(part, weights=lower)[part] == size[part]
        rank = np.empty(nodes.size, dtype=np.intp)
        rank[s] = np.arange(nodes.size) - np.repeat(start, size)
        lower[tied] = rank[tied] < (size // 2)[part[tied]]
        # the pattern holds the diagonal, so each pass grows the set by one
        # layer of neighbors; parts of one level are more than 2 apart
        near = np.zeros(n, dtype=bool)
        near[nodes[~lower]] = True
        for _ in range(2):
            near[pat.cols[near[pat.rows]]] = True
        separator = lower & near[nodes]
        digit = np.zeros(n, dtype=np.int8)
        digit[nodes] = np.where(separator, 2, ~lower)
        digits.append(digit)
        keep = ~separator
        nodes, part = nodes[keep], (2 * part + ~lower)[keep]
    # lexsort is stable, so nodes of one leaf or separator keep natural order
    return np.lexsort(digits[::-1]) if digits else np.arange(n)


class ResidualSystem:
    """Assembles A(u), G, T(u) and the exact Jacobian for one solve."""

    def __init__(self, mesh, velocity, params, g=None, dirichlet=None,
                 dt=None, u_old=None, bounds=None, freeze_mass_alpha=False):
        if dt is not None and dt <= 0:
            raise ValueError("dt must be positive")
        self.mesh = mesh
        self.velocity = velocity
        self.params = params
        self.dt = dt
        self.u_old = None if u_old is None else np.asarray(u_old, dtype=float)
        if dt is not None and self.u_old is None:
            raise ValueError("transient systems need the previous state")
        self.bounds = bounds
        self.freeze_mass_alpha = freeze_mass_alpha

        self.pattern = pattern(mesh)
        self.n = mesh.n_nodes
        self.mass, self.lumped = _mass(mesh)
        self.g = np.zeros(self.n) if g is None else np.asarray(g, dtype=float)

        if dirichlet is None:
            dirichlet = DirichletBC(np.empty(0, dtype=np.int64), np.empty(0))
        self.dirichlet = dirichlet
        self._dir_pos = row_positions(self.pattern.indptr, dirichlet.nodes)
        self._dir_diag = self.pattern.diag_pos[dirichlet.nodes]

        self._F_linear = _linear_convection(mesh, velocity) \
            if velocity.is_linear else None

    # ------------------------------------------------------------------

    @property
    def steady(self):
        return self.dt is None

    @property
    def jacobian_order(self):
        """The ordering in which ``newton_solve`` factorizes J."""
        return jacobian_order(self.mesh)

    def convection(self, u):
        if self._F_linear is not None:
            return self._F_linear
        return assemble_convection(self.mesh, self.velocity, u)

    def alphas(self, u):
        return stab.detector_values(self.mesh, u, self.params)

    def _viscous_operator(self, F, alphas):
        """B (or B~) for the configured mass treatment."""
        if self.params.detector == stab.GALERKIN:
            return SparseOperator.zeros(self.pattern)
        if not self.steady and self.params.mass == stab.SYMMETRIC_MASS:
            nu = stab.viscosity_symmetric_mass(self.mesh, F, self.mass,
                                               alphas, self.dt, self.params)
        else:
            nu = stab.viscosity(self.mesh, F, alphas, self.params)
        return stab.assemble_B(self.mesh, nu)

    def _mass_operator(self, alphas):
        if self.params.detector == stab.GALERKIN or \
                self.params.mass == stab.SYMMETRIC_MASS:
            return self.mass
        return stab.assemble_nonlinear_mass(self.mesh, self.mass,
                                            self.lumped, alphas)

    def _dirichlet_rows(self, data):
        """CSR of fresh pattern data whose Dirichlet rows are identity rows."""
        data[self._dir_pos] = 0.0
        data[self._dir_diag] = 1.0
        return self.pattern.csr(data)

    def assemble_operator(self, u):
        """Fixed-point operator and right side: A(u) u_next = G(u)."""
        u = np.asarray(u, dtype=float)
        F = self.convection(u)
        alphas = self.alphas(u)
        data = F.data + self._viscous_operator(F, alphas).data
        if self.steady:
            G = self.g.copy()
        else:
            M = self._mass_operator(alphas).to_csr()
            data = M.data * (1.0 / self.dt) + data
            G = self.g + (M @ self.u_old) / self.dt
        G[self.dirichlet.nodes] = self.dirichlet.values
        return self._dirichlet_rows(data), G

    def residual(self, u):
        """T(u); Dirichlet rows carry u_i - u_D."""
        A, G = self.assemble_operator(u)
        return A @ np.asarray(u, dtype=float) - G

    def picard_solve(self, u):
        """One fixed-point sweep: (u_next, factorized) for A(u) u_next = G."""
        A, G = self.assemble_operator(u)
        return solve_linear(_without_zeros(A), G)

    # ------------------------------------------------------------------
    # exact Jacobian
    # ------------------------------------------------------------------

    def jacobian(self, u):
        """Exact Jacobian J(u) of T(u) as canonical CSR (smooth variants and
        Galerkin only).

        J = A_on + P @ d alpha, one sparse product and one sum.  A_on is data
        on the mesh pattern: F, its state derivative, B(nu), the mass term
        and, for a nonlinear flux, F's state dependence inside the viscosity,
        summed element by element.  P holds the viscosity's partials, and
        its diagonal the gradually lumped mass's diag(w) d alpha.  d alpha is
        data on its per-mesh structure (``stabilization.detector_derivative``).
        J is canonical CSR, each row's columns sorted, and its Dirichlet rows
        become identity rows by index.
        """
        galerkin = self.params.detector == stab.GALERKIN
        if not (galerkin or self.params.is_smooth):
            raise ValueError(
                "the exact Jacobian needs a smooth detector variant")
        u = np.asarray(u, dtype=float)
        pat = self.pattern
        F = self.convection(u)
        Fp = assemble_convection_state_derivative(self.mesh, self.velocity, u)
        if galerkin:
            data = F.data + Fp.data
            if not self.steady:
                data = data + self.mass.data * (1.0 / self.dt)
            return _without_zeros(self._dirichlet_rows(data))
        alphas, dalpha = stab.detector_derivative(self.mesh, u, self.params)

        # viscosity from the transport operator, plus the mass-compensated
        # extra viscosity, whose smooth maxes act on alpha_i M_ij with the
        # 1/dt factor outside, exactly as in the assembled viscosity
        symmetric_mass = (not self.steady
                          and self.params.mass == stab.SYMMETRIC_MASS)
        terms = [(F, 1.0)] + ([(self.mass, self.dt)] if symmetric_mass else [])
        du_edge = u[pat.edge_rows] - u[pat.edge_cols]
        parts = []
        for K, scale in terms:
            nu, (w_a, w_b) = stab.edge_viscosity(pat, K, alphas, self.params,
                                                 partials=True)
            if K is F:  # F's partials also weight the flux term below
                w_F = (w_a, w_b)
            parts.append((
                nu / scale,
                du_edge * w_b * K.data[pat.edge_transpose_pos] / scale,
                np.bincount(pat.edge_rows,
                            weights=du_edge * w_a * K.data[pat.edge_pos] / scale,
                            minlength=self.n)))
        # reduce, not sum(): sum's 0 + x would turn -0.0 into +0.0
        nu_edge, p_off, p_diag = (functools.reduce(np.add, x)
                                  for x in zip(*parts))

        B = stab.assemble_B(self.mesh, stab._edge_operator(pat, nu_edge))
        data = F.data + Fp.data + B.data
        # state dependence of F inside the viscosity (nonlinear flux only)
        T3 = convection_entry_derivative_tensor(self.mesh, self.velocity, u)
        if T3 is not None:
            w_a, w_b = w_F
            data += self._viscosity_flux_term(
                du_edge * w_a * alphas[pat.edge_rows],
                du_edge * w_b * alphas[pat.edge_cols], T3)
        if not self.steady:
            data += self._mass_operator(alphas).data * (1.0 / self.dt)
            if not (symmetric_mass or self.freeze_mass_alpha):
                du = u - self.u_old
                w = (self.lumped * du - self.mass.matvec(du)) / self.dt
                p_diag += w

        P = stab._edge_operator(pat, p_off, diag=p_diag).to_csr()
        J = pat.csr(data) + P @ dalpha
        J.sort_indices()
        # identity Dirichlet rows, by index
        nodes = self.dirichlet.nodes
        J.data[row_positions(J.indptr, nodes)] = 0.0
        J[nodes, nodes] = 1.0
        J.eliminate_zeros()
        return J

    def _viscosity_flux_term(self, W1, W2, T3):
        """Pattern data of rows sum_j du_ij [w_a alpha_i dF_ij/du
        + w_b alpha_j dF_ji/du], summed element by element."""
        pat = self.pattern
        w1_data = np.zeros(pat.nnz)
        w1_data[pat.edge_pos] = W1
        w2_data = np.zeros(pat.nnz)
        w2_data[pat.edge_pos] = W2
        emap = pat.element_map
        contrib = np.einsum("eab,eabc->eac", w1_data[emap], T3)
        contrib += np.einsum("eab,ebac->eac", w2_data[emap], T3)
        return np.bincount(emap.ravel(), weights=contrib.ravel(),
                           minlength=pat.nnz)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _mass(mesh):
    """(M, lumped masses) of a mesh, assembled once per mesh; read-only."""
    if "mass" not in mesh._cache:
        M = assemble_mass(mesh)
        lumped = M.row_sums()
        _read_only(M.data, lumped)
        mesh._cache["mass"] = M, lumped
    return mesh._cache["mass"]


def _linear_convection(mesh, velocity):
    """F of a linear velocity model, assembled once per mesh and model;
    read-only."""
    key = ("linear_convection", velocity)
    if key not in mesh._cache:
        F = assemble_convection(mesh, velocity, np.zeros(mesh.n_nodes))
        _read_only(F.data)
        mesh._cache[key] = F
    return mesh._cache[key]


def _without_zeros(A):
    """A copy of CSR ``A`` without its stored zeros."""
    A = A.copy()
    A.eliminate_zeros()
    return A

