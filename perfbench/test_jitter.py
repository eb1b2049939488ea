"""Tests of the seeded jittered P1 mesh used by burgers_p1_anderson.

    python3 -m pytest perfbench/test_jitter.py
"""

import numpy as np
import pytest

from dmpfem import mesh as dmesh
from jitter import AMPLITUDE, jittered_p1

N = 50


def _boundary(coords):
    x, y = coords[:, 0], coords[:, 1]
    return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)


def test_same_seed_gives_identical_coordinates():
    a, ea = jittered_p1(N, 3)
    b, eb = jittered_p1(N, 3)
    assert np.array_equal(a, b)
    assert np.array_equal(ea, eb)
    c, _ = jittered_p1(N, 4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_boundary_fixed_and_interior_within_amplitude(seed):
    ref = dmesh.build_structured(N, N, kind=dmesh.P1)
    grid = ref.coords
    coords, elements = jittered_p1(N, seed)
    assert np.array_equal(elements, ref.elements)
    on_boundary = _boundary(grid)
    assert on_boundary.sum() == 4 * N
    assert np.array_equal(coords[on_boundary], grid[on_boundary])
    shift = np.linalg.norm(coords - grid, axis=1)
    assert np.all(shift[~on_boundary] > 0.0)
    assert np.all(shift <= AMPLITUDE / N + 1e-15)


def test_triangles_stay_counterclockwise():
    coords, elements = jittered_p1(N, 11)
    p = coords[elements]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.all(area2 > 0.0)
