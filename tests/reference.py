"""Reference operators that the tests compare the program against."""

from dataclasses import replace

from smframe import geometry as geo
from smframe.direct import flux_divergence
from smframe.field import rk4, spectral_derivative


def covariant_derivative(grid, q, a, axis):
    """D_axis q = (d_axis + i a_axis) q for complex q, on per-axis derivatives."""
    return spectral_derivative(grid, q, axis) + 1j * a * q


def heisenberg_step(state, dt):
    """RK4 of du/dt = d_k J(u x d_k u) on grid values, each stage from
    `flux_divergence`, then a retraction (no retry)."""
    tg, grid = state.target, state.grid
    u = geo.retract(tg, rk4(lambda s, v: flux_divergence(tg, grid, v), state.u, dt))
    return replace(state, time=state.time + dt, u=u)
