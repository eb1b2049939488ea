"""Seeded irregular P1 triangulations of the unit square for tests.

``jittered_p1`` is the benchmark's builder, ``perfbench/jitter.py``, wrapped
into a ``Mesh2D``: the uniform n-by-n P1 grid with every interior node moved
by a random offset of length at most ``AMPLITUDE * h``.  It keeps the grid's
connectivity, so every interior node has 6 neighbors.  ``delaunay_p1``
triangulates the grid's nodes anew after moving the interior ones further,
which gives interior valences from 3 to 9.  Boundary nodes stay, so boundary
predicates select the same nodes as on the unjittered grid.  Built without a
``structured_shape``, both meshes take the geometric symmetric-point path.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

from dmpfem.mesh import P1, Mesh2D

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.append(_PERFBENCH)

import jitter  # noqa: E402


def jittered_p1(n, seed):
    return Mesh2D(*jitter.jittered_p1(n, seed), P1)


DELAUNAY_SHIFT = 0.45   # largest move of an interior node per coordinate, in h


def delaunay_p1(n, seed):
    """Delaunay triangulation of the (n+1)^2 grid nodes of the unit square,
    each interior node moved by up to ``DELAUNAY_SHIFT * h`` per coordinate
    (seeded), with every triangle counter-clockwise."""
    ticks = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(ticks, ticks, indexing="xy")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    interior = np.all((coords > 0.0) & (coords < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    coords[interior] += rng.uniform(-DELAUNAY_SHIFT / n, DELAUNAY_SHIFT / n,
                                    (int(interior.sum()), 2))
    tri = Delaunay(coords).simplices.astype(np.int64)
    a, b, c = (coords[tri[:, k]] for k in range(3))
    (bx, by), (cx, cy) = (b - a).T, (c - a).T
    cw = bx * cy - by * cx < 0.0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    return Mesh2D(coords, tri, P1)
