"""Seeded jittered P1 triangulations of the unit square for tests.

The benchmark's builder, ``perfbench/jitter.py``, wrapped into a ``Mesh2D``:
the uniform n-by-n P1 grid with every interior node moved by a random offset
of length at most ``AMPLITUDE * h``.  Boundary nodes stay, so boundary
predicates select the same nodes as on the unjittered grid.  Built without a
``structured_shape``, the mesh takes the geometric symmetric-point path.
"""

import sys
from pathlib import Path

from dmpfem.mesh import P1, Mesh2D

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.append(_PERFBENCH)

import jitter  # noqa: E402


def jittered_p1(n, seed):
    return Mesh2D(*jitter.jittered_p1(n, seed), P1)
