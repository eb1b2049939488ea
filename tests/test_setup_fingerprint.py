"""Set-up fingerprint: sha256 digests of the adjacency pattern, both detector
stencils and the boundary data on four small meshes.

The solver's iterates depend on the exact term order and coefficients of
these arrays (converting the stencil triplets to CSR sums duplicates in
input order), so a change to how the mesh, the pattern or a stencil is built
must leave them bit-identical.  The digests were taken from the per-pair
loop builders that the array builders replaced.
"""

import hashlib

import numpy as np
import pytest

from dmpfem import stabilization as stab
from dmpfem.assembly import pattern
from dmpfem.mesh import P1, Q1, Mesh2D, build_structured
from helpers import transpose_pos
from test_mesh import hex_fan


def perturbed_fan():
    angles = np.zeros(6)
    angles[3] = 0.25
    return hex_fan(perturb_angle=angles)


def jittered_p1_8():
    # interior nodes moved by up to 0.2 h per axis: the geometric ray path
    grid = build_structured(8, 8, kind=P1)
    coords = grid.coords.copy()
    inner = ~grid.is_boundary
    rng = np.random.default_rng(2024)
    coords[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) / 8
    return Mesh2D(coords, grid.elements, P1)


MESHES = {
    "q1_7x5": lambda: build_structured(7, 5, kind=Q1),
    "p1_6x6": lambda: build_structured(6, 6, kind=P1),
    "perturbed_fan": perturbed_fan,
    "jittered_p1_8x8": jittered_p1_8,
}


def _digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def fingerprint(mesh):
    pat = pattern(mesh)
    out = {name: _digest(getattr(pat, name))
           for name in ("indptr", "indices", "element_map")}
    out["transpose_pos"] = _digest(transpose_pos(pat))
    for family in ("sym", "edge"):
        st = stab._stencil(mesh, family)
        for name, arr in (("Z.indptr", st.Z.indptr), ("Z.indices", st.Z.indices),
                          ("Z.data", st.Z.data), ("term_row", st.term_row)):
            out[f"{family}.{name}"] = _digest(arr)
    out["is_boundary"] = _digest(mesh.is_boundary)
    out["h_mean"] = float.hex(mesh.h_mean)
    return out


EXPECTED = {'jittered_p1_8x8': {'indptr': 'e8982df1c05ebe7e',
                                'indices': '280d0afb1c21571f',
                                'transpose_pos': '277815d17a78fb1a',
                                'element_map': '3202c547c77afed9',
                                'sym.Z.indptr': '9a92fd51294e1b85',
                                'sym.Z.indices': '54708550195f5d34',
                                'sym.Z.data': '879d2e7e1a1bf5a7',
                                'sym.term_row': '3e2f6e8cd17a0e1e',
                                'edge.Z.indptr': '3abdaf9bea3915be',
                                'edge.Z.indices': '22a5129e71c618a8',
                                'edge.Z.data': '948c2121b049837c',
                                'edge.term_row': '46754f096b58029c',
                                'is_boundary': '2ceb57508f8209ef',
                                'h_mean': '0x1.22b86e488a7e4p-3'},
            'p1_6x6': {'indptr': '4552fa020e18f4ce',
                       'indices': 'd366921346dc1c75',
                       'transpose_pos': '530b540bc1845309',
                       'element_map': '52ca8a15849606df',
                       'sym.Z.indptr': '459067950fbd1afc',
                       'sym.Z.indices': 'e23b5095537fec75',
                       'sym.Z.data': '00e98c470085a59f',
                       'sym.term_row': '4bd71d3c5229858b',
                       'edge.Z.indptr': 'e9f8687746f28c1b',
                       'edge.Z.indices': 'c3650637379e6861',
                       'edge.Z.data': '59aee5437b158564',
                       'edge.term_row': '33e79593cd8d0567',
                       'is_boundary': 'f4841e931cb46c0e',
                       'h_mean': '0x1.7fbfb17eea073p-3'},
            'perturbed_fan': {'indptr': '1fb1bff6b987165a',
                              'indices': '5cd6c7aa3747479e',
                              'transpose_pos': '35766e1efc7d33e1',
                              'element_map': 'c1940935eefe433b',
                              'sym.Z.indptr': '9c6c974c0a77c475',
                              'sym.Z.indices': 'e233d60d020985d9',
                              'sym.Z.data': '8fd990bd83514f98',
                              'sym.term_row': 'fde5caf99cfbdd2c',
                              'edge.Z.indptr': 'b169eefa7e62854a',
                              'edge.Z.indices': '452a7591b8e83d72',
                              'edge.Z.data': '23c07e411697e5d8',
                              'edge.term_row': '2233595c458c95d8',
                              'is_boundary': 'da8e4b81fde86d91',
                              'h_mean': '0x1.ff558e314e4a3p-1'},
            'q1_7x5': {'indptr': 'daa847ee5c7260dd',
                       'indices': '94cdcb5183254d63',
                       'transpose_pos': '1d946280600a19f0',
                       'element_map': '6c0bec0eab18b5b1',
                       'sym.Z.indptr': '774b099b1ceb59aa',
                       'sym.Z.indices': '395ab54127bc15f4',
                       'sym.Z.data': '7be6eea17682e4e7',
                       'sym.term_row': '6240c43db3cef9d0',
                       'edge.Z.indptr': 'e7ba2602e3f8ecf9',
                       'edge.Z.indices': '712bacbf6192ba68',
                       'edge.Z.data': '349f38b9e936018f',
                       'edge.term_row': 'c0353b9ec7ac22a2',
                       'is_boundary': '2b39cac3a83d7840',
                       'h_mean': '0x1.5da895da895d9p-3'}}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_setup_arrays_are_bit_identical(name):
    assert fingerprint(MESHES[name]()) == EXPECTED[name]
