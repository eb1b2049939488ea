from pathlib import Path

import copy

import numpy as np
import pytest

from dmpfem import mesh as dmesh
from dmpfem.mesh import P1, Q1, Mesh2D, build_structured
from helpers import sym_points, triangle_fan
from meshes import DELAUNAY_SHIFT, delaunay_p1, jittered_p1

SYM_ARRAYS = ("has_sym", "sym_ptr", "sym_cols", "sym_coefs", "sym_dist")


def neighbors(mesh, i):
    """Nodes of the macroelement of node i, sorted, i included."""
    return mesh.adj_idx[mesh.adj_ptr[i]:mesh.adj_ptr[i + 1]]


def pair_index(mesh, i, j):
    """Index p of the node pair (i, j) in the mesh's pair arrays."""
    (p,) = np.flatnonzero((mesh.pair_i == i) & (mesh.pair_j == j))
    return int(p)


def sym_node(mesh, p):
    """Mesh node at pair p's symmetric point; None for an edge-interior point."""
    run = slice(mesh.sym_ptr[p], mesh.sym_ptr[p + 1])
    if mesh.sym_ptr[p + 1] - mesh.sym_ptr[p] != 1:
        return None
    assert mesh.sym_coefs[run][0] == 1.0
    return int(mesh.sym_cols[run][0])


def sym_values(mesh, u):
    """u_h at every pair's symmetric point; NaN where the point does not exist."""
    n_pairs = mesh.pair_i.size
    owner = np.repeat(np.arange(n_pairs), np.diff(mesh.sym_ptr))
    vals = np.bincount(owner, weights=mesh.sym_coefs * u[mesh.sym_cols],
                       minlength=n_pairs)
    return np.where(mesh.has_sym, vals, np.nan)


def hex_fan(radius=1.0, perturb_angle=None):
    """Fan of six equilateral triangles around the origin."""
    angles = np.arange(6) * np.pi / 3.0
    if perturb_angle is not None:
        angles = angles + perturb_angle
    ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return triangle_fan((0.0, 0.0), ring)


def test_structured_counts_q1():
    mesh = build_structured(2, 2, kind=Q1)
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 4
    center = 4
    assert len(neighbors(mesh, center)) == 9


def test_structured_1x1_all_connected():
    mesh = build_structured(1, 1, kind=Q1)
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 1
    for i in range(4):
        assert set(neighbors(mesh, i)) == {0, 1, 2, 3}


def test_structured_p1_counts_and_orientation():
    mesh = build_structured(2, 2, kind=P1)
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    # first cell splits along the lower-left to upper-right diagonal
    assert tuple(mesh.elements[0]) == (0, 1, 4)
    assert tuple(mesh.elements[1]) == (0, 4, 3)


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        build_structured(0, 2)
    with pytest.raises(ValueError):
        build_structured(2, -1)


def test_center_symmetric_node_is_mirror():
    mesh = build_structured(2, 2, kind=Q1)
    center, east, west = 4, 5, 3
    assert sym_node(mesh, pair_index(mesh, center, east)) == west


@pytest.mark.parametrize("kind", [Q1, P1])
@pytest.mark.parametrize("nx,ny", [(2, 3), (4, 4), (5, 2)])
def test_neighborhood_symmetry(kind, nx, ny):
    mesh = build_structured(nx, ny, kind=kind)
    for i in range(mesh.n_nodes):
        assert i in neighbors(mesh, i)
        for j in neighbors(mesh, i):
            assert i in neighbors(mesh, j)


def test_neighborhood_symmetry_fan():
    mesh = hex_fan()
    for i in range(mesh.n_nodes):
        for j in neighbors(mesh, i):
            assert i in neighbors(mesh, j)


@pytest.mark.parametrize("kind", [Q1, P1])
def test_structured_sym_is_nodal_with_equal_distance(kind):
    mesh = build_structured(4, 4, kind=kind)
    for p in np.flatnonzero(~mesh.is_boundary[mesh.pair_i]):
        i, j = mesh.pair_i[p], mesh.pair_j[p]
        assert mesh.has_sym[p]
        assert sym_node(mesh, p) is not None
        r = np.linalg.norm(mesh.coords[j] - mesh.coords[i])
        assert abs(mesh.sym_dist[p] - r) < 1e-12


@pytest.mark.parametrize("kind", [Q1, P1])
def test_sym_point_geometry(kind):
    mesh = build_structured(3, 4, kind=kind)
    points = sym_points(mesh)
    for p in np.flatnonzero(mesh.has_sym):
        xi, xj = mesh.coords[mesh.pair_i[p]], mesh.coords[mesh.pair_j[p]]
        xs = points[p]
        # on the line through x_i, x_j and on the opposite side of x_i
        r = xj - xi
        s = xs - xi
        cross = r[0] * s[1] - r[1] * s[0]
        assert abs(cross) < 1e-12
        assert float(s @ r) < 0


def test_symmetric_value_lookup_on_grid():
    mesh = build_structured(2, 2, kind=Q1)
    u = mesh.coords[:, 0].copy()
    center, east, west = 4, 5, 3
    p = pair_index(mesh, center, east)
    assert sym_values(mesh, u)[p] == pytest.approx(u[west])


def test_boundary_sym_absent():
    mesh = build_structured(2, 2, kind=Q1)
    corner, east = 0, 1
    p = pair_index(mesh, corner, east)
    assert not mesh.has_sym[p]
    assert np.isnan(sym_values(mesh, np.zeros(9))[p])
    # along-boundary neighbors keep their mirror
    mid_bottom = 1
    assert sym_node(mesh, pair_index(mesh, mid_bottom, 0)) == 2


@pytest.mark.parametrize("kind", [Q1, P1])
def test_linear_reproduction_structured(kind):
    mesh = build_structured(3, 3, kind=kind)
    a, b, c = 2.0, 1.0, 0.3
    u = a * mesh.coords[:, 0] + b * mesh.coords[:, 1] + c
    vals = sym_values(mesh, u)
    points = sym_points(mesh)
    for p in np.flatnonzero(mesh.has_sym):
        xs = points[p]
        expected = a * xs[0] + b * xs[1] + c
        assert vals[p] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", [Q1, P1])
@pytest.mark.parametrize("nx,ny", [(7, 5), (24, 24)])
def test_structured_sym_matches_the_geometric_path(kind, nx, ny):
    # the mirrored-node fast path is the ray search's result, to the bit
    fast = build_structured(nx, ny, kind=kind)
    ref = Mesh2D(fast.coords, fast.elements, kind)
    for name in SYM_ARRAYS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_fan_center_syms_are_opposite_nodes():
    mesh = hex_fan()
    for j in range(1, 7):
        opposite = 1 + (j - 1 + 3) % 6
        assert sym_node(mesh, pair_index(mesh, 0, j)) == opposite


def test_perturbed_fan_exercises_point_kind():
    # rotating one ring node off its spoke forces an edge-interior exit point
    angles = np.zeros(6)
    angles[3] = 0.25
    mesh = hex_fan(perturb_angle=angles)
    p = pair_index(mesh, 0, 1)
    assert mesh.has_sym[p]
    assert sym_node(mesh, p) is None
    # gradient extrapolation is exact on linear fields
    u = 2.0 * mesh.coords[:, 0] + mesh.coords[:, 1]
    xs = sym_points(mesh)[p]
    assert sym_values(mesh, u)[p] == pytest.approx(2 * xs[0] + xs[1], abs=1e-12)


def test_mesh_is_frozen_after_build():
    mesh = build_structured(2, 2)
    before = mesh.coords.copy()
    _ = mesh.adj_idx, mesh.sym_dist
    assert np.array_equal(mesh.coords, before)


def test_cached_builds_once_per_key():
    mesh = build_structured(2, 2)
    calls = []

    def build():
        calls.append(1)
        return object()

    first = mesh.cached("value", build)
    assert mesh.cached("value", build) is first
    assert mesh.cached(("value", 2), build) is not first
    assert len(calls) == 2


def test_the_q1_bilinears_are_defined_once():
    # assembly, the symmetric-point weights and the error norms all take
    # the shape functions from mesh.shape_functions
    src = Path(__file__).resolve().parent.parent / "src" / "dmpfem"
    text = "".join(m.read_text() for m in sorted(src.glob("*.py")))
    assert text.count("xi * (1 - eta)") == 1


def test_only_the_mesh_module_names_its_cache():
    # every per-mesh memo goes through Mesh2D.cached
    src = Path(__file__).resolve().parent.parent / "src" / "dmpfem"
    modules = sorted(src.glob("*.py"))
    assert modules
    offenders = [m.name for m in modules
                 if m.name != "mesh.py" and "_cache" in m.read_text()]
    assert offenders == []


def test_delaunay_meshes_are_seeded_counter_clockwise_and_irregular():
    valences = set()
    for seed in range(3):
        mesh = delaunay_p1(24, seed)
        again = delaunay_p1(24, seed)
        assert np.array_equal(mesh.coords, again.coords)
        assert np.array_equal(mesh.elements, again.elements)
        a, b, c = (mesh.coords[mesh.elements[:, k]] for k in range(3))
        area = 0.5 * ((b - a)[:, 0] * (c - a)[:, 1]
                      - (b - a)[:, 1] * (c - a)[:, 0])
        assert np.all(area > 0.0) and np.isclose(area.sum(), 1.0)
        # boundary nodes stay on the grid; interior ones move by at most
        # DELAUNAY_SHIFT * h per coordinate
        ticks = np.linspace(0.0, 1.0, 25)
        grid = np.stack(np.meshgrid(ticks, ticks, indexing="xy"),
                        axis=-1).reshape(-1, 2)
        shift = np.abs(mesh.coords - grid)
        assert np.all(shift[mesh.is_boundary] == 0.0)
        assert np.max(shift) <= DELAUNAY_SHIFT / 24
        degree = np.bincount(mesh.pair_i, minlength=mesh.n_nodes)
        valences |= set(degree[~mesh.is_boundary].tolist())
    assert valences == set(range(3, 10))


def _graded_4x4(kind):
    """build_structured's 4x4 connectivity on graded ticks."""
    xx, yy = np.meshgrid([0.0, 0.1, 0.35, 0.7, 1.0], [0.0, 0.2, 0.3, 0.75, 1.0],
                         indexing="xy")
    return (np.column_stack([xx.ravel(), yy.ravel()]),
            build_structured(4, 4, kind=kind).elements)


def _other_diagonal_4x4():
    """The uniform P1 4x4 grid with cell 0 split along its other diagonal."""
    grid = build_structured(4, 4, kind=P1)
    elements = grid.elements.copy()
    elements[:2] = [[0, 1, 5], [1, 6, 5]]
    return grid.coords, elements


@pytest.mark.parametrize("kind, make", [
    (Q1, lambda: _graded_4x4(Q1)), (P1, lambda: _graded_4x4(P1)),
    (P1, _other_diagonal_4x4)], ids=["graded-q1", "graded-p1", "p1-diagonal"])
def test_a_structured_shape_that_is_not_the_grid_is_refused(kind, make):
    coords, elements = make()
    with pytest.raises(ValueError, match="structured_shape"):
        Mesh2D(coords, elements, kind, structured_shape=(4, 4))
    # the mirrored-node path would have given other symmetric points than
    # the ray search
    ref = Mesh2D(coords, elements, kind)
    mirrored = copy.copy(ref)
    mirrored.structured_shape = (4, 4)
    mirrored._sym_structured()
    assert not all(np.array_equal(getattr(ref, name), getattr(mirrored, name),
                                  equal_nan=True) for name in SYM_ARRAYS)


@pytest.mark.parametrize("kind", [Q1, P1])
def test_a_structured_shape_is_checked_on_the_bounding_box(kind):
    grid = build_structured(6, 3, domain=(-1.0, 2.0, 0.5, 0.75), kind=kind)
    again = Mesh2D(grid.coords, grid.elements, kind, structured_shape=(6, 3))
    for name in SYM_ARRAYS:
        assert getattr(again, name).tobytes() == getattr(grid, name).tobytes()
    for shape in ((3, 6), (6, 2), (6.0, 3)):
        with pytest.raises(ValueError):
            Mesh2D(grid.coords, grid.elements, kind, structured_shape=shape)


def test_mesh_arguments_are_checked():
    grid = build_structured(2, 2)
    with pytest.raises(ValueError, match="coords must have shape"):
        Mesh2D(grid.coords[:, :1], grid.elements, Q1)
    with pytest.raises(ValueError, match="coords must have shape"):
        Mesh2D(grid.coords.ravel(), grid.elements, Q1)
    with pytest.raises(ValueError, match="unknown element kind"):
        Mesh2D(grid.coords, grid.elements, "q2")
    with pytest.raises(ValueError, match="q1 elements must have 4 nodes"):
        Mesh2D(grid.coords, grid.elements[:, :3], Q1)
    with pytest.raises(ValueError, match="p1 elements must have 3 nodes"):
        Mesh2D(grid.coords, grid.elements, P1)


def test_build_structured_arguments_are_checked():
    with pytest.raises(ValueError, match="integers"):
        build_structured(2.0, 2)
    with pytest.raises(ValueError, match="integers"):
        build_structured(2, "2")
    for domain in ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5)):
        with pytest.raises(ValueError, match="nondegenerate rectangle"):
            build_structured(2, 2, domain=domain)


def test_p1_elements_have_no_rectangle_sides():
    with pytest.raises(ValueError, match="only Q1 elements are rectangles"):
        build_structured(2, 2, kind=P1).element_rect_sides()


@pytest.mark.parametrize("make", [jittered_p1, delaunay_p1],
                         ids=["jittered", "delaunay"])
def test_the_ray_search_does_not_depend_on_its_block_size(make, monkeypatch):
    # the reference searches all pairs in one block; the default block and a
    # few hundred pairs per block each join several blocks
    default = make(24, 3)
    assert default.pair_i.size > dmesh._RAY_BLOCK
    with monkeypatch.context() as m:
        m.setattr(dmesh, "_RAY_BLOCK", 1 << 20)
        whole = make(24, 3)
    assert whole.pair_i.size < 1 << 20
    monkeypatch.setattr(dmesh, "_RAY_BLOCK", 300)
    blocked = make(24, 3)
    assert blocked.pair_i.size > 10 * 300
    for mesh in (default, blocked):
        for name in SYM_ARRAYS:
            a, b = getattr(mesh, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
