"""The equations' symmetries as properties: an isometry Q of the target maps
solutions to solutions, SO(3) on S^2 and SO+(2,1) on H^2, and the gauge-side
stepper commutes with a global phase and with whole-cell translations."""

import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import geometry as geo
from smframe import presets
from smframe.errors import MeanHolonomy
from smframe.field import Grid
from smframe.gnls import GnlsState, gnls_seed_from_map, gnls_step
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


GNLS_DT = 1e-4
#: round-off of the stepper's inputs, in units of max |q|
ROUNDOFF = 32 * np.finfo(float).eps


def _gnls_state(target, n, amplitude, seed):
    """A gauge-side state of d random coordinates band-limited to n / 6."""
    g = Grid(n, (8 * np.pi,) * len(n))
    q = np.array([presets.random_bandlimited(g, n[0] // 6, amplitude, seed + l)
                  for l in range(g.dim)])
    return GnlsState(grid=g, target=target, time=0.0, q=q)


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=["sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [(64,), (32, 32)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(phase=ANGLES, amplitude=hst.floats(0.1, 1.0), seed=hst.integers(0, 2**32 - 1))
def test_gnls_step_commutes_with_a_global_phase(target, n, phase, amplitude, seed):
    # f_lk, a and a_0 are invariant under q -> e^{i phi} q, so one step is
    # covariant: 1.8 eps max|q| at most over 240 draws per dimension; |q|^2
    # formed as Re(q)^2 alone (1-D) or f_lk as kappa Im(q_l q_k) (2-D) breaks it
    st = _gnls_state(target, n, amplitude, seed)
    turn = np.exp(1j * phase)
    moved = gnls_step(replace(st, q=turn * st.q), GNLS_DT).q
    expected = turn * gnls_step(st, GNLS_DT).q
    assert np.max(np.abs(moved - expected)) <= ROUNDOFF * np.max(np.abs(st.q))


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=["sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [(64,), (32, 32)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(data=hst.data(), amplitude=hst.floats(0.1, 1.0), seed=hst.integers(0, 2**32 - 1))
def test_gnls_step_commutes_with_whole_cell_translations(target, n, data, amplitude, seed):
    # a translation moves the box corner where a_0 is anchored, which shifts
    # a_0 by a constant and the step by one global phase (up to 4e-5 max|q|
    # here), taken out as the phase of <T step(q), step(T q)>: 1.7 eps max|q|
    # at most over 240 draws per dimension; a_0 anchored on the corner row
    # a_0[0] (2-D) breaks it
    st = _gnls_state(target, n, amplitude, seed)
    shift = tuple(data.draw(hst.integers(-m // 2, m // 2)) for m in n)
    axes = tuple(range(1, len(n) + 1))
    moved = gnls_step(replace(st, q=np.roll(st.q, shift, axes)), GNLS_DT).q
    expected = np.roll(gnls_step(st, GNLS_DT).q, shift, axes)
    overlap = np.vdot(expected, moved)
    moved *= np.conj(overlap) / abs(overlap)
    assert np.max(np.abs(moved - expected)) <= ROUNDOFF * np.max(np.abs(st.q))
