"""The element kernels as they were assembled before they moved onto the
element-last layout: one generic ``np.einsum`` per block, on the quadrature
in its former (element, point, ...) layout.  Kept as the bit-for-bit
reference of ``assemble_mass``, ``assemble_convection``,
``assemble_convection_state_derivative``,
``convection_entry_derivative_tensor`` and ``assemble_forcing``.
"""

import numpy as np

from dmpfem.assembly import _assemble_pairs, pattern
from dmpfem.assembly import quadrature as element_last_quadrature


def quadrature(mesh):
    """``assembly.quadrature`` rebuilt in its former layout, with the same
    strides: points (ne, nq, 2), weights (ne, nq), shape (nq, nloc) and
    gradients (ne, nq, nloc, 2), each a C-contiguous array."""
    points, weights, shape, grads = element_last_quadrature(mesh)
    return (np.ascontiguousarray(points.transpose(2, 1, 0)),
            np.ascontiguousarray(weights.T), shape,
            np.ascontiguousarray(grads.transpose(3, 1, 2, 0)))


def former_mass(mesh):
    _, w, shape, _ = quadrature(mesh)
    elem = np.einsum("eq,qa,qb->eab", w, shape, shape)
    return _assemble_pairs(mesh, elem)


def former_convection(mesh, vel, w):
    pts, wq, shape, grads = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->eq", shape, w[mesh.elements])
    vx, vy = vel.velocity(pts[..., 0], pts[..., 1], wq_vals)
    elem = np.einsum("eq,qa,eqb->eab", wq * vx, shape, grads[..., 0])
    elem += np.einsum("eq,qa,eqb->eab", wq * vy, shape, grads[..., 1])
    return _assemble_pairs(mesh, elem)


def former_convection_state_derivative(mesh, vel, w):
    pat = pattern(mesh)
    if vel.is_linear:
        return pat.csr(np.zeros(pat.nnz))
    pts, wq, shape, grads = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    we = w[mesh.elements]
    wq_vals = np.einsum("qa,ea->eq", shape, we)
    gx = np.einsum("eqa,ea->eq", grads[..., 0], we)
    gy = np.einsum("eqa,ea->eq", grads[..., 1], we)
    dvx, dvy = vel.dvelocity_dw(pts[..., 0], pts[..., 1], wq_vals)
    coef = wq * (dvx * gx + dvy * gy)
    elem = np.einsum("eq,qa,qb->eab", coef, shape, shape)
    return _assemble_pairs(mesh, elem)


def former_convection_entry_derivative_tensor(mesh, vel, w):
    if vel.is_linear:
        return None
    pts, wq, shape, grads = quadrature(mesh)
    w = np.asarray(w, dtype=float)
    wq_vals = np.einsum("qa,ea->eq", shape, w[mesh.elements])
    dvx, dvy = vel.dvelocity_dw(pts[..., 0], pts[..., 1], wq_vals)
    t = np.einsum("eq,qa,eqb,qc->eabc", wq * dvx, shape, grads[..., 0], shape)
    t += np.einsum("eq,qa,eqb,qc->eabc", wq * dvy, shape, grads[..., 1], shape)
    return t


def former_forcing(mesh, g):
    pts, wq, shape, _ = quadrature(mesh)
    gq = g(pts[..., 0], pts[..., 1])
    vals = np.einsum("eq,qa->ea", wq * gq, shape)
    return np.bincount(mesh.elements.ravel(), weights=vals.ravel(),
                       minlength=mesh.n_nodes)
