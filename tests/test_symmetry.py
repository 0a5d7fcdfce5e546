"""The equations' symmetries as properties: an isometry Q of the target maps
solutions to solutions, SO(3) on S^2 and SO+(2,1) on H^2."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import geometry as geo
from smframe.errors import MeanHolonomy
from smframe.field import Grid
from smframe.gnls import gnls_seed_from_map
from smframe.reconstruct import reconstruct_trajectory

from test_reconstruct import _graph_map

ANGLES = hst.floats(-np.pi, np.pi)


def rotation(axis, angle):
    """The rotation by `angle` about the unit vector `axis` (Rodrigues)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def boost(rapidity, direction):
    """The Lorentz boost of `rapidity` along the spatial unit vector at angle
    `direction` in the (u1, u2) plane; u0 is the time axis."""
    n1, n2 = np.cos(direction), np.sin(direction)
    k = np.array([[0.0, n1, n2], [n1, 0.0, 0.0], [n2, 0.0, 0.0]])
    return np.eye(3) + np.sinh(rapidity) * k + (np.cosh(rapidity) - 1.0) * (k @ k)


@hst.composite
def isometries(draw, target):
    """A rotation about a random axis on S^2; on H^2 a boost of rapidity at
    most 1 after a rotation about the time axis."""
    if target is geo.SPHERE:
        polar, azimuth = draw(hst.floats(0.0, np.pi)), draw(ANGLES)
        axis = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                         np.cos(polar)])
        return rotation(axis, draw(ANGLES))
    return (boost(draw(hst.floats(0.0, 1.0)), draw(ANGLES))
            @ rotation(np.array([1.0, 0.0, 0.0]), draw(ANGLES)))


DT, N_STEPS = 2e-4, 4


@functools.cache
def _reconstruction(target, n):
    """The gauge-side seed of a random map, the base point and frame at the
    box center, and the states reconstructed from them."""
    g = Grid(n, (8 * np.pi,) * len(n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeanHolonomy)
        start_map = _graph_map(target, g, 0.3, 3, 3)
        start, e = gnls_seed_from_map(target, g, start_map)
    c = g.center_index
    # the seed's frame at the center, made unit tangent at m by the target metric alone
    m = start_map[c]
    v0 = geo.orthonormalize_frame(target, m, e[c])
    return start, m, v0, list(reconstruct_trajectory(start, DT, m, v0, N_STEPS))


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=["sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [(256,), (64, 64)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(data=hst.data())
def test_reconstruction_commutes_with_target_isometries(target, n, data):
    # from (Q m, Q v0) and the same gauge-side start, every state is (Q u, Q e):
    # a rapidity-0.6 boost reads 1.9e-15 (1-D) and 2.3e-15 (2-D), a 0.7 rad
    # rotation 5.0e-16 and 1.1e-15; with the eta sign flip of j_apply dropped,
    # the boost reads 7.2e-2 and 6.0e-2
    q = data.draw(isometries(target))
    start, m, v0, states = _reconstruction(target, n)
    moved = reconstruct_trajectory(start, DT, q @ m, q @ v0, N_STEPS)
    scale = np.linalg.norm(q, 2) ** 2 * max(np.max(np.abs(st.u)) for st in states)
    for st, sq in zip(states, moved, strict=True):
        assert sq.time == st.time
        assert np.max(np.abs(st.u @ q.T - sq.u)) < 1e-13 * scale
        assert np.max(np.abs(st.e @ q.T - sq.e)) < 1e-13 * scale
