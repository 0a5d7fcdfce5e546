"""Direct geometric integrators on the map side.

The Heisenberg flow on S^2 and the divergence-form flow on H^2,

    du/dt = d_k ( u x d_k u )          (sphere)
    du/dt = eta d_k ( u x d_k u )      (hyperboloid)

are stepped with classical RK4 on the divergence form (whose integral is
killed exactly by the spectral derivative, so int u is conserved to the
retraction error), followed by a retraction onto the constraint set.

The parabolic perturbation of the hyperbolic flow,

    du/dt = (eta d_k (u x d_k u) + eps (Lap u - <grad u, eta grad u> u)) / (1 + eps^2),

uses a Lawson integrating-factor Heun step: the dissipative linear part
eps Lap / (1 + eps^2) is exact in Fourier space, everything else explicit.

The right-hand sides run on `field.gradient` and `field.divergence`; the
parabolic step hands one d_k u per stage to the flux and the Dirichlet density.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from .errors import DegenerateRetraction, InvalidStep
from .field import Grid, divergence, gradient, integrate, lawson_heun, rk4, roll_axes
from .gnls import check_cfl


@dataclass(frozen=True)
class MapState:
    """Immutable map-valued state u(t, x); u is kept component-major, each
    of its 3 components contiguous in memory behind the (..., 3) shape."""

    grid: Grid
    target: geo.Target
    time: float
    u: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(roll_axes(np.asarray(self.u), 0, -1))
        object.__setattr__(self, "u", roll_axes(u, 0, 1))

    def constraint_max(self) -> float:
        return float(np.max(np.abs(geo.constraint_defect(self.target, self.u))))


def flux_divergence(target: geo.Target, grid: Grid, u: np.ndarray,
                    du: np.ndarray | None = None) -> np.ndarray:
    """sum_k d_k J(u x d_k u): the divergence-form right-hand side; du is
    field.gradient(grid, u) when the caller has it."""
    du = gradient(grid, u) if du is None else du
    return divergence(grid, geo.j_apply(target, u, du))


def dirichlet_density(target: geo.Target, grid: Grid, u: np.ndarray,
                      du: np.ndarray | None = None) -> np.ndarray:
    """sum_k <d_k u, d_k u> in the target metric; du as in flux_divergence."""
    du = gradient(grid, u) if du is None else du
    return np.sum(geo.inner(target, du, du), axis=0)


def heisenberg_step(state: MapState, dt: float) -> MapState:
    """RK4 step of the Heisenberg model du/dt = d_k(u x d_k u) on S^2."""
    if state.target.kind != "sphere":
        raise ValueError("heisenberg_step needs a sphere target")
    check_cfl(state.grid, dt)
    u = rk4(lambda s, v: flux_divergence(state.target, state.grid, v), state.u, dt)
    return replace(state, time=state.time + dt, u=geo.retract(state.target, u))


def hyperbolic_sm_step(state: MapState, dt: float, _retried: bool = False) -> MapState:
    """RK4 step of du/dt = eta d_k(u x d_k u) on H^2.

    A failed Lorentz retraction signals instability: the step is retried
    once with two half steps, then the failure propagates.
    """
    if state.target.kind != "hyperbolic":
        raise ValueError("hyperbolic_sm_step needs a hyperbolic target")
    check_cfl(state.grid, dt)
    try:
        u = rk4(lambda s, v: flux_divergence(state.target, state.grid, v), state.u, dt)
        u = geo.retract(state.target, u)
    except DegenerateRetraction:
        if _retried:
            raise
        half = hyperbolic_sm_step(state, dt / 2.0, _retried=True)
        return hyperbolic_sm_step(half, dt / 2.0, _retried=True)
    return replace(state, time=state.time + dt, u=u)


def parabolic_sm_step(state: MapState, dt: float, epsilon: float) -> MapState:
    """Lawson-Heun step of the parabolically perturbed hyperbolic flow."""
    if state.target.kind != "hyperbolic":
        raise ValueError("parabolic_sm_step needs a hyperbolic target")
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    if epsilon <= 0:
        raise InvalidStep(f"epsilon must be positive, got {epsilon}")
    tg, grid = state.target, state.grid
    nu = epsilon / (1.0 + epsilon**2)

    def nonlinear(v):
        du = gradient(grid, v)
        return (flux_divergence(tg, grid, v, du) / (1.0 + epsilon**2)
                - nu * dirichlet_density(tg, grid, v, du)[..., np.newaxis] * v)

    u_new = lawson_heun(grid, state.u, dt, nu, nonlinear)
    return replace(state, time=state.time + dt, u=geo.retract(tg, u_new))


def map_moment(state: MapState) -> np.ndarray:
    """int u dx for S^2; int (u - base point) dx for H^2 (first entry is
    the conserved moment int (u0 - 1)).  These are the integrals of the
    Killing-field potentials: the three rotations of S^2; the rotation and
    the two boosts of H^2."""
    if state.target.kind == "sphere":
        return np.asarray(integrate(state.grid, state.u))
    return np.asarray(integrate(state.grid, state.u - state.target.base_point))
