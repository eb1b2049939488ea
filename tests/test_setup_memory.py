"""Set-up memory budget: the traced peak of the two set-up builders whose
transients grow with the mesh, the geometric symmetric-point search of
``Mesh2D`` and the detector stencil of ``DetectorStencil``.

The peak is read with ``tracemalloc`` (numpy reports its buffers to it), so
it counts the builder's own allocations and not what the heap keeps from
earlier work, which the process's ``peak_rss_mb`` can hide.  The budgets sit
above the current peaks (about 4.2 and 11.9 MiB) and below the peaks of the
former block of 32768 pairs and the former triplet-built Z (14.4 and
19.2 MiB), so bringing either transient back fails here.
"""

import tracemalloc

from dmpfem.mesh import P1, Mesh2D, build_structured
from dmpfem.stabilization import DetectorStencil
from meshes import jitter

MIB = 1 << 20


def traced_peak(build):
    """Peak traced bytes while ``build()`` runs, once it has run untraced
    (so lazy imports and first-call caches are not counted)."""
    build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_the_ray_search_of_a_jittered_p1_50_mesh_stays_within_6_mib():
    coords, elements = jitter.jittered_p1(50, 3)
    peak = traced_peak(lambda: Mesh2D(coords, elements, P1))
    assert peak <= 6 * MIB, f"traced peak {peak / MIB:.2f} MiB"


def test_the_sym_stencil_of_q1_96_stays_within_16_mib():
    mesh = build_structured(96, 96)
    peak = traced_peak(lambda: DetectorStencil(mesh, "sym"))
    assert peak <= 16 * MIB, f"traced peak {peak / MIB:.2f} MiB"
