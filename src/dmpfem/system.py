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
sparse sum would give it.

The Jacobian is exact for the smooth detector variants.  It starts from
the residual's A(u) at the same iterate: the evaluation of T(u) that Newton
linearizes at, ``residual(u, keep=True)``, also returns (A(u) as assembled,
Dirichlet rows included, the smooth detector's state), so J runs
neither the detector's forward pass, nor nu, B and the nonlinear mass again.
It adds only the chain rule: F' and F's state dependence inside the
viscosity (nonlinear flux only), and P @ d alpha, with P the partials of the
residual's viscosity kernel (``stabilization.edge_viscosity``), J's one
evaluation of the smooth maxima.
d alpha couples every node to its whole detector neighborhood, so J lives on
the distance-2 adjacency; it comes from sparse products with a matrix built
once per mesh, on the first Jacobian (``stabilization.detector_derivative``),
which set-up and Anderson never build.  J is canonical CSR: zero-free, each
row's columns sorted.

Both solves go through ``solve_linear``, which first gives every matrix one
cycle of GMRES(60) right-preconditioned by its diagonal (Jacobi), whose
result is kept only at the relative residual asked for: 1e-12 for the
Picard A(u), whose Anderson mixing follows the last bits of each sweep, and
for J Newton's forcing term min(1e-2, ||T_k|| / ||T_0||), never below 1e-12
(``solvers.newton_solve``).  A transient matrix, Newton's J or the Picard
A(u), is M/dt plus transport terms that are small beside it at the time
steps used (median off-diagonal row sum 0.05 of the diagonal of J on the
THREE_BODY_ROTATION benchmark), so M/dt dominates the diagonal and the cycle
reaches 1e-12 in about 30 iterations, 14 ms against 66 ms for the
factorization of J at 96^2; every rotation J and every Picard A(u) of the
BURGERS2D benchmark is taken.  At the forcing term a rotation J takes a
median of 7 iterations (2.3 ms): 514 products over that benchmark's 41 J,
where 1e-12 took 1221 over 38.  A steady matrix has no M/dt term.  Every 10
iterations the cycle checks that the rate of the last 10, kept up, reaches
the tolerance within 60.  The 15 J of the STRAIGHT_DISCONTINUITY benchmark
fail the first check at the forcing cap 1e-2 as at 1e-12, after about
2.5 ms, so the steady field keeps its bits.
A steady A(u) of that problem passes it, then stalls near a relative
residual of 1e-3 and fails the second: 6 ms per operator at 96^2, against
54 ms for all 60 iterations (the first 60 Picard operators of the STRAIGHT
q=4 refinement study).  A cycle that would leave such a plateau late is
given up too: one operator at 24^2, which GMRES solved in 48 iterations.
Such a matrix, and any with n <= 60 or a zero diagonal entry, is
factorized.

J is factorized in SuperLU's symmetric mode on a nested-dissection ordering
of the mesh's distance-2 graph, computed once per mesh (``jacobian_order``).
The steady J has weak diagonals: under a minimum-degree ordering its pivots
leave the diagonal on the early iterates and the fill grows to 2.7 M at
96^2; the separators confine that pivoting to subdomains (at most 1.5 M),
and no ordering is made per factorization.
A(u) is factorized with COLAMD and partial pivoting, bit-identical to
``spsolve``: symmetric mode moves the last bits of each Picard sweep, and
Anderson's iteration count follows them (411 -> 522 on the BURGERS2D
benchmark), where Newton's quadratic convergence absorbs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import stabilization as stab
from .assembly import (_linear_convection, _mass, assemble_convection,
                       assemble_convection_state_derivative,
                       convection_entry_derivative_tensor, pattern)
from .mesh import row_positions


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
KRYLOV_RTOL = 1e-12  # the default tolerance, and the floor of Newton's
FACTORIZED_RTOL = 1e-8   # relative residual above which a factorized A is
                         # reported numerically singular


def _jacobi_gmres(A, b, rtol=KRYLOV_RTOL):
    """x with ||A x - b|| <= rtol ||b|| from one cycle of GMRES(m), or None.

    GMRES (Saad & Schultz, SISSC 1986) from x = 0, right-preconditioned by
    diag(A), so that it minimizes the true residual; classical Gram-Schmidt
    run twice, Givens rotations for the least-squares residual.  None when
    n <= m (within n iterations GMRES would solve a small singular but
    consistent system instead of letting the factorization report it), when
    a diagonal entry is zero, when at a multiple of ``_PROBE`` iterations
    the rate of the last ``_PROBE`` cannot reach ``rtol`` within m, when m
    iterations do not reach it, or when the residual of the formed x misses
    it.  The rotations and the least-squares right side are Python floats,
    the same IEEE operations as numpy's scalars at less cost per iteration.
    """
    n, m = b.size, _KRYLOV
    d = A.diagonal()
    beta = math.sqrt(b.dot(b))
    if n <= m or not np.all(d) or not 0.0 < beta < math.inf:
        return None
    target = rtol * beta
    V = np.empty((m + 1, n))
    z = np.empty(n)
    R = np.zeros((m, m))
    cs, sn = [], []
    g = [beta]
    np.divide(b, beta, out=V[0])
    checked = 1.0   # relative residual at the last rate check
    for k in range(m):
        w = A @ np.divide(V[k], d, out=z)
        h = V[:k + 1] @ w
        w -= h @ V[:k + 1]
        c = V[:k + 1] @ w
        w -= c @ V[:k + 1]
        h += c
        h_next = math.sqrt(w.dot(w))
        h = h.tolist()
        for i in range(k):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              cs[i] * h[i + 1] - sn[i] * h[i])
        r = float(np.hypot(h[k], h_next))
        if r == 0.0:
            return None
        cs.append(h[k] / r)
        sn.append(h_next / r)
        h[k] = r
        R[:k + 1, k] = h
        g[k], g_next = cs[k] * g[k], -sn[k] * g[k]
        g.append(g_next)
        if abs(g_next) <= target:
            y = scipy.linalg.solve_triangular(R[:k + 1, :k + 1], g[:k + 1])
            x = (y @ V[:k + 1]) / d
            res = A @ x - b
            return x if math.sqrt(res.dot(res)) <= target else None
        # every _PROBE iterations: the rate of the last _PROBE, kept for the
        # rest of the cycle, would not get there
        if (k + 1) % _PROBE == 0:
            rel = abs(g_next) / beta
            if rel * (rel / checked) ** ((m - k - 1) / _PROBE) > rtol:
                return None
            checked = rel
        np.divide(w, h_next, out=V[k + 1])
    return None


def solve_linear(A, b, order=None, rtol=KRYLOV_RTOL):
    """(x, factorized) for A x = b; raises SingularSystemError on breakdown.

    First one cycle of GMRES(60) right-preconditioned by diag(A), skipped
    for n <= 60 or a zero diagonal entry, abandoned at every tenth iteration
    when the rate of the last ten cannot reach ``rtol`` within 60, and its x
    returned only when ||A x - b|| <= rtol ||b||; ``factorized`` is then
    False.  Newton passes its forcing term as ``rtol``; the Picard sweep
    keeps the default 1e-12.  Otherwise, in the same call, A is factorized
    and ``factorized`` is True (see the module docstring for which matrices
    take which path); the factorization solves to roundoff whatever
    ``rtol``, and ||A x - b|| > 1e-8 ||b|| then means a numerically singular
    A and raises.  With ``order``, a permutation of the unknowns, as Newton
    passes for J, A is permuted symmetrically by it and factorized in
    SuperLU's symmetric mode, a diagonal pivot kept unless below 0.01 of its
    column's largest entry.  Without it, as for A(u), SuperLU with COLAMD
    and partial pivoting, the result bit-identical to ``spsolve``.  A
    singular A raises through the factorization or that residual check,
    except that a large, exactly singular A with b in its range may return
    a GMRES solution instead.
    """
    x = _jacobi_gmres(A, b, rtol)
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
    # a numerically singular A factorizes without complaint, and its x then
    # misses b by far more than a solve to roundoff does
    rel = np.linalg.norm(A @ x - b) / (np.linalg.norm(b) or 1.0)
    if rel > FACTORIZED_RTOL:
        raise SingularSystemError(f"relative residual {rel:.1e} after "
                                  "factorization")
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
    return mesh.cached("jacobian_order",
                       lambda: _nested_dissection(pattern(mesh), mesh.coords))


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
                 dt=None, u_old=None, bounds=None):
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

    def assemble_operator(self, u, keep=False):
        """Fixed-point operator and right side: A(u) u_next = G(u).

        A(u) is F + B (+ M/dt); B is B~ and M constant under the symmetric
        mass, and Galerkin has B = 0 and the constant M.  With ``keep``, a
        third value, the evaluation that ``jacobian`` at u starts from: (A(u),
        the smooth detector's state at u, else None).
        """
        u = np.asarray(u, dtype=float)
        F = self.convection(u)
        alphas, detector = stab.detector_values(self.mesh, u, self.params,
                                                state=True)
        galerkin = self.params.detector == stab.GALERKIN
        symmetric_mass = self.params.mass == stab.SYMMETRIC_MASS
        if galerkin:
            data = F.data.copy()
        else:
            if not self.steady and symmetric_mass:
                B = stab.viscosity_symmetric_mass(self.mesh, F, self.mass,
                                                  alphas, self.dt, self.params)
            else:
                B = stab.viscosity(self.mesh, F, alphas, self.params)
            data = np.add(F.data, B.data, out=B.data)
        if self.steady:
            G = self.g.copy()
        else:
            M = self.mass if galerkin or symmetric_mass else \
                stab.assemble_nonlinear_mass(self.mesh, self.mass,
                                             self.lumped, alphas)
            data = M.data * (1.0 / self.dt) + data
            G = self.g + (M @ self.u_old) / self.dt
        G[self.dirichlet.nodes] = self.dirichlet.values
        A = self._dirichlet_rows(data)
        return (A, G, (A, detector)) if keep else (A, G)

    def _dirichlet_rows(self, data):
        """CSR of fresh pattern data whose Dirichlet rows are identity rows."""
        data[self._dir_pos] = 0.0
        data[self._dir_diag] = 1.0
        return self.pattern.csr(data)

    def residual(self, u, keep=False):
        """T(u); Dirichlet rows carry u_i - u_D.  With ``keep``, (T(u), the
        evaluation at u that ``jacobian`` starts from), as Newton asks for
        it (see ``assemble_operator``)."""
        A, G, *kept = self.assemble_operator(u, keep)
        T = A @ np.asarray(u, dtype=float) - G
        return (T, *kept) if keep else T

    def picard_solve(self, u):
        """One fixed-point sweep: (u_next, factorized) for A(u) u_next = G."""
        A, G = self.assemble_operator(u)
        return solve_linear(_without_zeros(A), G)

    # ------------------------------------------------------------------
    # exact Jacobian
    # ------------------------------------------------------------------

    def jacobian(self, u, evaluation=None):
        """Exact Jacobian J(u) of T(u) as canonical CSR (smooth variants and
        Galerkin only).

        J = A(u) + A' + P @ d alpha, one sparse product and one sum.  J
        starts from A(u) as T(u)'s evaluation assembled it: ``evaluation``,
        which ``residual(u, keep=True)`` returned, or else one made here
        through the same code.  A' holds F' and the viscosity flux term,
        summed element by element (nonlinear flux only), on a copy of A(u)'s
        data whose Dirichlet rows are then reset; the kept A(u) is never
        written.  P holds the
        viscosity's partials, and its diagonal the gradually lumped mass's
        diag(w) d alpha; d alpha takes the evaluation's detector state.  The
        Dirichlet rows of J are identity rows.
        """
        u = np.asarray(u, dtype=float)
        A, detector = evaluation or self.assemble_operator(u, keep=True)[2]
        F, data = self.convection(u), A.data
        nonlinear = not self.velocity.is_linear
        if nonlinear:
            data = data + assemble_convection_state_derivative(
                self.mesh, self.velocity, u).data
        if self.params.detector == stab.GALERKIN:
            # a copy: for a linear flux, data is still the kept A(u)'s
            return _without_zeros(self._dirichlet_rows(data.copy()))
        alphas, dalpha = stab.detector_derivative(self.mesh, u, self.params,
                                                  detector)

        # partials of the viscosity of F, and under the symmetric mass of
        # the extra viscosity of M, 1/dt outside the smooth maxes
        pat = self.pattern
        symmetric_mass = (not self.steady
                          and self.params.mass == stab.SYMMETRIC_MASS)
        terms = [(F, 1.0)] + ([(self.mass, self.dt)] if symmetric_mass else [])
        du_edge = u[pat.edge_rows] - u[pat.edge_cols]
        p_off = p_diag = 0.0
        for K, scale in terms:
            Wa, Wb = (du_edge * w for w in stab.edge_viscosity(
                pat, K, alphas, self.params, partials=True)[1])
            if K is F and nonlinear:
                data += self._viscosity_flux_term(u, alphas, Wa, Wb)
            p_off += Wb * K.data[pat.edge_transpose_pos] / scale
            # row sums of the edge terms: their operator's diagonal
            p_diag += stab._edge_operator(
                pat, Wa * K.data[pat.edge_pos] / scale).data[pat.diag_pos]
        if not self.steady and not symmetric_mass:
            du = u - self.u_old
            p_diag += (self.lumped * du - self.mass @ du) / self.dt

        # identity Dirichlet rows: P's rows are zeroed, so P @ dalpha adds
        # nothing there.  Both terms are canonical, sorted and free of
        # duplicates, so scipy's sum merges them in order, sorted and
        # without zeros
        P = stab._edge_operator(pat, p_off, diag=p_diag)
        P.data[self._dir_pos] = 0.0
        chain = P @ dalpha
        chain.sort_indices()
        return (self._dirichlet_rows(data) if nonlinear else A) + chain

    def _viscosity_flux_term(self, u, alphas, Wa, Wb):
        """Pattern data of rows sum_j du_ij [w_a alpha_i dF_ij/du
        + w_b alpha_j dF_ji/du], summed element by element, from the edge
        values Wa = du w_a and Wb = du w_b."""
        pat = self.pattern
        T3 = convection_entry_derivative_tensor(self.mesh, self.velocity, u)
        zeros = np.zeros(pat.n)
        w1, w2 = (stab._edge_operator(pat, W * alphas[at], diag=zeros).data
                  for W, at in ((Wa, pat.edge_rows), (Wb, pat.edge_cols)))
        emap = pat.element_map
        contrib = np.einsum("eab,eabc->eac", w1[emap], T3)
        contrib += np.einsum("eab,ebac->eac", w2[emap], T3)
        return np.bincount(emap.ravel(), weights=contrib.ravel(),
                           minlength=pat.nnz)


def _without_zeros(A):
    """A copy of CSR ``A`` without its stored zeros."""
    A = A.copy()
    A.eliminate_zeros()
    return A

