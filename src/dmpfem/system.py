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
drops them on a copy so that SuperLU orders the same zero-free structure as
a sparse sum would give it.  The Jacobian is exact for the smooth
detector variants, including the detector chain rule through the regularized
maxima and the state dependence of the transport operator; its sparsity
extends to the distance-2 adjacency because every detector value depends on
the whole neighborhood.  The residual and the Jacobian take the viscosity
from the same kernel, ``stabilization.edge_viscosity``, the Jacobian with
its partials.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import stabilization as stab
from .assembly import (SparseOperator, assemble_convection,
                       assemble_convection_state_derivative, assemble_mass,
                       convection_entry_derivative_tensor, pattern)


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


def solve_linear(A, b):
    """Direct sparse solve; raises SingularSystemError on breakdown."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            x = spla.spsolve(A.tocsc(), b)
        except (spla.MatrixRankWarning, RuntimeError, ValueError) as exc:
            raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("linear solve produced non-finite values")
    return x


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
        self.mass = assemble_mass(mesh)
        self.lumped = self.mass.row_sums()
        self.g = np.zeros(self.n) if g is None else np.asarray(g, dtype=float)

        if dirichlet is None:
            dirichlet = DirichletBC(np.empty(0, dtype=np.int64), np.empty(0))
        self.dirichlet = dirichlet
        self._dir_pos = _row_positions(self.pattern.indptr, dirichlet.nodes)
        self._dir_diag = self.pattern.diag_pos[dirichlet.nodes]

        self._F_linear = assemble_convection(mesh, velocity, np.zeros(self.n)) \
            if velocity.is_linear else None

    # ------------------------------------------------------------------

    @property
    def steady(self):
        return self.dt is None

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
        """One fixed-point sweep: solve A(u) u_next = G."""
        A, G = self.assemble_operator(u)
        return solve_linear(_without_zeros(A), G)

    # ------------------------------------------------------------------
    # exact Jacobian
    # ------------------------------------------------------------------

    def jacobian(self, u):
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
                W = (du_edge * w_a * alphas[pat.edge_rows],
                     du_edge * w_b * alphas[pat.edge_cols])
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
        # the on-pattern terms as one data vector, zero-free like a sparse sum
        J = _without_zeros(pat.csr(F.data + Fp.data + B.data))
        P = stab._edge_operator(pat, p_off, diag=p_diag).to_csr()
        J = J + P @ dalpha

        # state dependence of F inside the viscosity (nonlinear flux only)
        T3 = convection_entry_derivative_tensor(self.mesh, self.velocity, u)
        if T3 is not None:
            J = J + self._viscosity_flux_term(*W, T3)

        # time term
        if not self.steady:
            J = J + self._mass_operator(alphas).to_csr() / self.dt
            if not (symmetric_mass or self.freeze_mass_alpha):
                du = u - self.u_old
                wvec = (self.lumped * du - self.mass.matvec(du)) / self.dt
                J = J + sp.diags(wvec) @ dalpha

        # identity Dirichlet rows, by index; J keeps the row order that the
        # sparse sums gave it
        nodes = self.dirichlet.nodes
        J.data[_row_positions(J.indptr, nodes)] = 0.0
        J[nodes, nodes] = 1.0
        J.eliminate_zeros()
        return J

    def _viscosity_flux_term(self, W1, W2, T3):
        """Rows sum_j du_ij [w_a alpha_i dF_ij/du + w_b alpha_j dF_ji/du]."""
        pat = self.pattern
        w1_data = np.zeros(pat.nnz)
        w1_data[pat.edge_pos] = W1
        w2_data = np.zeros(pat.nnz)
        w2_data[pat.edge_pos] = W2
        emap = pat.element_map
        W1e = w1_data[emap]            # (ne, nloc, nloc)
        W2e = w2_data[emap]
        contrib = np.einsum("eab,eabc->eac", W1e, T3)
        contrib += np.einsum("eab,ebac->eac", W2e, T3)
        conn = self.mesh.elements
        nloc = conn.shape[1]
        rows = np.repeat(conn, nloc, axis=1).ravel()
        cols = np.tile(conn, (1, nloc)).ravel()
        return sp.coo_matrix((contrib.ravel(), (rows, cols)),
                             shape=(self.n, self.n)).tocsr()


def _row_positions(indptr, rows):
    """Data positions of the stored entries of ``rows`` of a CSR matrix."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    return (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum()))


def _without_zeros(A):
    """A copy of CSR ``A`` without its stored zeros."""
    A = A.copy()
    A.eliminate_zeros()
    return A

