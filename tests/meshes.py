"""Seeded jittered P1 triangulations of the unit square for tests.

The uniform n-by-n grid of ``build_structured(n, n, kind=P1)``, each cell
split along its lower-left-to-upper-right diagonal, with every interior node
moved by a random offset of length at most ``AMPLITUDE * h``.  Boundary nodes
stay, so boundary predicates select the same nodes as on the unjittered grid.
Built without a ``structured_shape``, the mesh takes the geometric
symmetric-point path.
"""

import numpy as np

from dmpfem.mesh import P1, Mesh2D, build_structured

AMPLITUDE = 0.2


def jittered_p1(n, seed):
    grid = build_structured(n, n, kind=P1)
    interior = ~grid.is_boundary
    rng = np.random.default_rng(seed)
    k = int(interior.sum())
    radius = AMPLITUDE / n * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    coords = grid.coords.copy()
    coords[interior] += radius[:, None] * np.column_stack([np.cos(angle),
                                                           np.sin(angle)])
    return Mesh2D(coords, grid.elements, P1)
