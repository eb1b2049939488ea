"""Properties of the operator layer on irregular P1 meshes.

Hypothesis draws a mesh (``meshes.jittered_p1`` or ``delaunay_p1``, n in
{6, 10, 16}, seeds 0-3: 24 meshes) and the data on it under one fixed,
derandomized profile, so every run checks the same examples.  The
properties are the structural identities the scheme rests on: F and B
annihilate constants row by row, B is exactly symmetric and positive
semidefinite, gradual lumping keeps the lumped row sums, every detector
value lies in [0, 1], and the gradient-family detectors vanish on affine
data.

The edge-family detectors do not vanish on affine data on these meshes:
their plain nodal differences toward unevenly spaced neighbors do not
cancel, and alpha reaches about 0.66 (non-smooth) and 0.99 (smooth) there.
That is a property of the variant, not a defect, so it is not asserted.

Every detector variant is exactly 1 at every strict interior extremum of
seeded random fields on Q1 16^2 and on jittered and Delaunay P1 24^2: the
smooth variants at eps > 0, the non-smooth ones at eps = 0.  The smooth
variants at eps = 0 land a few ulps off 1 there, on either side (CHANGES.md
FOUND), so that case is not asserted.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpfem import stabilization as stab
from dmpfem.assembly import (VelocityModel, _mass, assemble_convection,
                             pattern)
from dmpfem.mesh import build_structured
from helpers import transpose_pos
from meshes import delaunay_p1, jittered_p1
from test_assembly import constant_velocity
from test_stabilization import params_for

PROFILE = settings(derandomize=True, max_examples=100, deadline=None,
                   database=None)

BUILDERS = {"jittered": jittered_p1, "delaunay": delaunay_p1}


@functools.lru_cache(maxsize=None)
def mesh_for(builder, n, seed):
    return BUILDERS[builder](n, seed)


meshes = st.builds(mesh_for, st.sampled_from(sorted(BUILDERS)),
                   st.sampled_from([6, 10, 16]), st.integers(0, 3))
angles = st.floats(0.0, 2.0 * np.pi)


def velocity(theta):
    return constant_velocity(np.cos(theta), np.sin(theta))


def random_field(mesh, seed):
    return np.random.default_rng(seed).standard_normal(mesh.n_nodes)


@PROFILE
@given(meshes, angles, st.integers(0, 2 ** 16),
       st.sampled_from([stab.NONSMOOTH, stab.SMOOTH]))
def test_convection_and_stabilization_annihilate_constants(mesh, theta, seed,
                                                           detector):
    ones = np.ones(mesh.n_nodes)
    u = random_field(mesh, seed)
    for vel in (velocity(theta), VelocityModel.burgers()):
        F = assemble_convection(mesh, vel, u)
        assert np.max(np.abs(F @ ones)) <= 1e-15
        p = params_for(detector)
        B = stab.viscosity(mesh, F, stab.detector_values(mesh, u, p), p)
        assert np.max(np.abs(B @ ones)) <= 1e-15


@PROFILE
@given(meshes, angles, st.integers(0, 2 ** 16),
       st.sampled_from(stab.DETECTOR_KINDS[:4]))
def test_stabilization_is_symmetric_positive_semidefinite(mesh, theta, seed,
                                                          detector):
    pat = pattern(mesh)
    u = random_field(mesh, seed)
    F = assemble_convection(mesh, velocity(theta), u)
    p = params_for(detector)
    B = stab.viscosity(mesh, F, stab.detector_values(mesh, u, p), p)
    assert np.array_equal(B.data, B.data[transpose_pos(pat)])
    for w in (u, random_field(mesh, seed + 1)):
        assert w @ (B @ w) >= -1e-14 * np.max(np.abs(B.data)) * (w @ w)


@PROFILE
@given(meshes, st.integers(0, 2 ** 16))
def test_gradual_lumping_keeps_the_lumped_row_sums(mesh, seed):
    M, lumped = _mass(mesh)
    alphas = np.random.default_rng(seed).random(mesh.n_nodes)
    alphas[::4] = (0.0, 1.0)[seed % 2]
    Ma = stab.assemble_nonlinear_mass(mesh, M, lumped, alphas)
    assert np.max(np.abs(Ma @ np.ones(mesh.n_nodes) - lumped)) <= 1e-15


@PROFILE
@given(meshes, st.integers(0, 2 ** 16), st.sampled_from([1.0, 4.0, 25.0]))
def test_detector_values_lie_in_the_unit_interval(mesh, seed, q):
    u = random_field(mesh, seed)
    # plateaus: exact zero differences on a third of the nodes
    u[::3] = 0.0
    for detector in stab.DETECTOR_KINDS[:4]:
        alpha = stab.detector_values(mesh, u, params_for(detector, q))
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))


@PROFILE
@given(meshes, angles, st.floats(1.0, 2.0), st.floats(-1.0, 1.0))
def test_gradient_detectors_vanish_on_affine_data(mesh, theta, slope, level):
    x, y = mesh.coords.T
    u = level + slope * (np.cos(theta) * x + np.sin(theta) * y)
    # the smooth ratio keeps sqrt(eps) / (sum of |z|) in its numerator, so
    # its alpha is small, not zero: about (sqrt(eps) / slope)^q
    assert np.max(stab.detector_values(mesh, u,
                                       params_for(stab.SMOOTH))) <= 1e-8
    assert np.max(stab.detector_values(mesh, u,
                                       params_for(stab.NONSMOOTH))) <= 1e-40


def strict_interior_extrema(mesh, u):
    """Interior nodes whose value is strictly above or strictly below the
    values of all their neighbors."""
    hi = np.full(mesh.n_nodes, -np.inf)
    lo = np.full(mesh.n_nodes, np.inf)
    np.maximum.at(hi, mesh.pair_i, u[mesh.pair_j])
    np.minimum.at(lo, mesh.pair_i, u[mesh.pair_j])
    return np.nonzero(((u > hi) | (u < lo)) & ~mesh.is_boundary)[0]


EXTREMUM_MESHES = {"q1_16": lambda: build_structured(16, 16),
                   "jittered_p1_24": lambda: mesh_for("jittered", 24, 0),
                   "delaunay_p1_24": lambda: mesh_for("delaunay", 24, 0)}


@pytest.mark.parametrize("q, eps, gamma", [(4.0, 1e-4, 1e-10),
                                           (25.0, 1e-2, 1e-8)])
@pytest.mark.parametrize("detector", stab.DETECTOR_KINDS[:4])
@pytest.mark.parametrize("name", sorted(EXTREMUM_MESHES))
def test_detector_is_one_at_strict_interior_extrema(name, detector, q, eps,
                                                    gamma):
    # params_for runs the non-smooth variants at eps = gamma = 0
    mesh = EXTREMUM_MESHES[name]()
    p = params_for(detector, q=q, eps=eps, gamma=gamma)
    for seed in range(5):
        u = random_field(mesh, seed)
        nodes = strict_interior_extrema(mesh, u)
        assert nodes.size > mesh.interior_nodes.size // 20
        alpha = stab.detector_values(mesh, u, p)
        assert np.all(alpha[nodes] == 1.0), nodes[alpha[nodes] != 1.0]
