"""Direct geometric integrators on the map side.

The Heisenberg flow on S^2 and its counterpart on H^2,

    du/dt = d_k ( u x d_k u )          (sphere)
    du/dt = eta d_k ( u x d_k u )      (hyperboloid)

are one equation, the Heisenberg model and its non-compact form, and one
step serves both: classical RK4 on the divergence form (whose integral is
killed exactly by the spectral derivative, so int u is conserved to the
retraction error), followed by a retraction onto the constraint set.  A
failed retraction is retried once as two half steps.  RK4 steps the half
spectra of u; a stage transforms (u, d_k u) back and the fluxes J(u x d_k u) forth.

The parabolic perturbation of the hyperbolic flow,

    du/dt = (eta d_k (u x d_k u) + eps (Lap u - <grad u, eta grad u> u)) / (1 + eps^2),

uses a Lawson integrating-factor Heun step on the half spectra of u: the
dissipative linear part eps Lap / (1 + eps^2) is exact in Fourier space,
everything else explicit.  Both steppers, and `flux_divergence`, share the
stage kernel `_flux_hat`; the parabolic stage takes the Dirichlet density
from the same d_k u and transforms its product with u forth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from .errors import DegenerateRetraction, InvalidStep
from .field import Grid, _irfft, _rfft, check_cfl, gradient, integrate, lawson_heun, rk4, \
    roll_axes


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


def _flux_hat(target: geo.Target, grid: Grid, vh: np.ndarray) -> tuple:
    """(v, d_k v, the half spectra of sum_k d_k J(v x d_k v)) from the half
    spectra vh of v's 3 components; v and d_k v are components last."""
    ik = grid.half_ik
    v_dv = roll_axes(_irfft(grid, np.stack([vh, *(k * vh for k in ik)])), 1, -grid.dim)
    jh = _rfft(grid, roll_axes(geo.j_apply(target, v_dv[0], v_dv[1:]), 1, grid.dim))
    return v_dv[0], v_dv[1:], sum(k * jk for k, jk in zip(ik, jh))


def flux_divergence(target: geo.Target, grid: Grid, u: np.ndarray) -> np.ndarray:
    """sum_k d_k J(u x d_k u): the divergence-form right-hand side."""
    uh = _rfft(grid, roll_axes(u, 0, grid.dim))
    return roll_axes(_irfft(grid, _flux_hat(target, grid, uh)[2]), 0, -grid.dim)


def dirichlet_density(target: geo.Target, grid: Grid, u: np.ndarray) -> np.ndarray:
    """sum_k <d_k u, d_k u> in the target metric."""
    du = gradient(grid, u)
    return np.sum(geo.inner(target, du, du), axis=0)


def heisenberg_step(state: MapState, dt: float) -> MapState:
    """RK4 step of the divergence-form flow, then a retraction: the
    Heisenberg model on S^2, its non-compact (SU(1,1)) form on H^2.

    A failed retraction signals instability: the step is taken once more
    as two half steps, and a second failure propagates.
    """
    check_cfl(state.grid, dt)
    tg, grid = state.target, state.grid

    def advance(u, h):
        uh = _rfft(grid, roll_axes(u, 0, grid.dim))
        uh = rk4(lambda s, vh: _flux_hat(tg, grid, vh)[2], uh, h)
        return geo.retract(tg, roll_axes(_irfft(grid, uh), 0, -grid.dim))

    try:
        u = advance(state.u, dt)
    except DegenerateRetraction:
        u = advance(advance(state.u, dt / 2.0), dt / 2.0)
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

    def nonlinear(vh):
        v, dv, flux = _flux_hat(tg, grid, vh)
        density = np.sum(geo.inner(tg, dv, dv), axis=0)
        return flux / (1.0 + epsilon**2) - nu * _rfft(grid, density * roll_axes(v, 0, grid.dim))

    uh = lawson_heun(_rfft(grid, roll_axes(state.u, 0, grid.dim)), dt,
                     np.exp(-nu * grid.half_k_squared * dt), nonlinear)
    u_new = roll_axes(_irfft(grid, uh), 0, -grid.dim)
    return replace(state, time=state.time + dt, u=geo.retract(tg, u_new))


def map_moment(state: MapState) -> np.ndarray:
    """int u dx for S^2; int (u - base point) dx for H^2 (first entry is
    the conserved moment int (u0 - 1)).  These are the integrals of the
    Killing-field potentials: the three rotations of S^2; the rotation and
    the two boosts of H^2."""
    if state.target.kind == "sphere":
        return np.asarray(integrate(state.grid, state.u))
    return np.asarray(integrate(state.grid, state.u - state.target.base_point))
