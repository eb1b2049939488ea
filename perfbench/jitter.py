"""Seeded jittered P1 triangulation of the unit square.

The grid is the uniform n-by-n grid that ``dmpfem.mesh.build_structured``
makes for P1, with each cell split along its lower-left-to-upper-right
diagonal and node ``iy*(n+1) + ix`` at grid position (ix, iy).  Every interior
node is then moved by a random offset of length at most ``AMPLITUDE * h``.
Boundary nodes stay where they are, so the problems' boundary predicates
(``x == 0``, ``y == 1``, ...) select the same nodes as on the unjittered grid.

Only coordinates and elements are returned: handing them to ``Mesh2D``
without a ``structured_shape`` makes the mesh take its geometric
symmetric-point path.
"""

from __future__ import annotations

import numpy as np

# Largest offset of an interior node, as a share of the grid spacing h.
AMPLITUDE = 0.2


def jittered_p1(n, seed):
    """(coords, elements) of the n-by-n P1 grid with jittered interior nodes."""
    if n < 2:
        raise ValueError("need n >= 2 for interior nodes to exist")
    h = 1.0 / n
    ticks = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(ticks, ticks, indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    n00 = (iy * (n + 1) + ix).ravel()
    n10, n01 = n00 + 1, n00 + n + 1
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    elements = np.stack([lower, upper], axis=1).reshape(-1, 3)

    gx, gy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    interior = ((gx > 0) & (gx < n) & (gy > 0) & (gy < n)).ravel()
    rng = np.random.default_rng(seed)
    k = int(interior.sum())
    radius = AMPLITUDE * h * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    coords[interior, 0] += radius * np.cos(angle)
    coords[interior, 1] += radius * np.sin(angle)
    return coords, elements
