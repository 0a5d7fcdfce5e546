"""Rebuilding the map and frame from gauge-side trajectories.

The inverse direction of the correspondence: given (q, a) on a time slab
plus one base point (m, v0), integrate

    d u = Re(q) e + Im(q) Je
    d e = a Je - kappa Re(q) u            (ambient form of D e = a Je)

first along the spatial axes from the box center (axis 1 through the
center line, then axis 2 from every point of that line), then pointwise in
time using the solver's stage snapshots of (q_0, a_0).  Every discrete
step is followed by retraction and frame re-orthonormalization.

The construction lives on the torus while the underlying identities hold
on R^d, so the spatial sweep need not close up; the wrap-around mismatch
is measured and reported as `periodicity_defect`, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from . import geometry as geo
from .errors import InvalidStep
from .field import Grid, fractional_shift, rk4, spectral_derivative
from .gauge import Connection, Coordinates
from .gnls import GnlsState, gnls_step, nls1d_step


@dataclass(frozen=True)
class BasePointData:
    """Anchor data: a point m on the target and a unit tangent v0 at m."""

    m: np.ndarray
    v0: np.ndarray

    def validate(self, target: geo.Target, tol: float = 1e-8) -> None:
        geo.check_on_manifold(target, self.m, tol)
        if abs(geo.inner(target, self.v0, self.m)) > tol:
            raise ValueError("v0 is not tangent at m")
        if abs(geo.inner(target, self.v0, self.v0) - 1.0) > tol:
            raise ValueError("v0 is not unit in the target metric")


@dataclass(frozen=True)
class MapFrameState:
    grid: Grid
    target: geo.Target
    time: float
    u: np.ndarray
    e: np.ndarray
    periodicity_defect: float = 0.0


def _rk4_transport(target: geo.Target, y: np.ndarray, h: float, samples) -> np.ndarray:
    """One RK4 step of the (u, e) ODE, y = (u, e) stacked on axis 0, with
    (q, a) `samples` at the step's start, midpoint and end; then retraction
    and re-orthonormalization."""
    coef = {s: (q.real[..., np.newaxis], q.imag[..., np.newaxis], a[..., np.newaxis])
            for s, (q, a) in zip((0.0, 0.5, 1.0), samples)}

    def f(s, y):
        qr, qi, a = coef[s]
        je = geo.j_apply(target, y[0], y[1])
        out = np.empty_like(y)
        out[0] = qr * y[1] + qi * je
        out[1] = a * je - target.kappa * qr * y[0]
        return out

    y = rk4(f, y, h)
    y[0] = geo.retract(target, y[0])
    y[1] = geo.orthonormalize_frame(target, y[0], y[1])
    return y


#: RK4 substeps per grid interval in the spatial sweep; the coefficients
#: are band-limited, so spectral interpolation supplies exact off-lattice
#: samples and the substeps buy pure integrator accuracy (h/m)^4.
SWEEP_SUBSTEPS = 8


def _line_samples(grid: Grid, f: np.ndarray, axis: int, n_sub: int) -> np.ndarray:
    """f sampled at x + (t / 2m) h for t = 0..2m, swept axis moved last."""
    out = [np.moveaxis(fractional_shift(grid, f, axis, t / (2.0 * n_sub)),
                       axis, -1)
           for t in range(2 * n_sub)]
    out.append(np.roll(out[0], -1, axis=-1))
    return np.stack(out)


def _sweep_line(target: geo.Target, h: float, qs: np.ndarray, as_: np.ndarray,
                u0, e0, center: int,
                n_sub: int = SWEEP_SUBSTEPS) -> tuple[np.ndarray, np.ndarray, float]:
    """Integrate the transport ODE along one periodic line from its center.

    qs/as_ are `_line_samples` tables of shape (2m+1, batch..., n); u0/e0
    may carry matching batch axes.  Returns (U, E, wrap defect) with the
    line index as the first axis of U and E.
    """
    n = qs.shape[-1]
    hs = h / n_sub
    batch = np.broadcast_shapes(np.asarray(u0).shape[:-1], qs.shape[1:-1])
    Y = np.zeros((n, 2) + batch + (3,))  # (u, e) stacked on axis 1
    Y[center, 0] = geo.retract(target, np.broadcast_to(u0, batch + (3,)))
    Y[center, 1] = geo.orthonormalize_frame(target, Y[center, 0],
                                            np.broadcast_to(e0, batch + (3,)))

    def node_step(y, j, forward: bool):
        col = j % n
        for i in range(n_sub):
            ts = (2 * i, 2 * i + 1, 2 * i + 2)
            if not forward:
                ts = tuple(2 * n_sub - t for t in ts)
            y = _rk4_transport(target, y, hs if forward else -hs,
                               [(qs[t][..., col], as_[t][..., col]) for t in ts])
        return y

    # rightward: nodes center .. center + n/2
    y = Y[center]
    for j in range(center, center + n // 2):
        y = node_step(y, j, forward=True)
        Y[(j + 1) % n] = y
    wrap = y

    # leftward: nodes center .. center - n/2 + 1, plus one probe step to the seam
    y = Y[center]
    for j in range(center, center - n // 2, -1):
        y = node_step(y, j - 1, forward=False)
        if j > center - n // 2 + 1:
            Y[(j - 1) % n] = y
    defect = float(np.max(np.linalg.norm(y - wrap, axis=-1).sum(axis=0)))
    return Y[:, 0], Y[:, 1], defect


def initial_data_sweep(target: geo.Target, grid: Grid, coords: Coordinates,
                       conn: Connection, base: BasePointData) -> MapFrameState:
    """Build (u, e) at one time slice from (q, a) by axis-ordered sweeps.

    u(center) = m and e(center) = v0 exactly; axis 1 is swept through the
    center line first, then axis 2 from every point of that line.
    """
    base.validate(target)
    c = grid.center_index

    if grid.dim == 1:
        qs = _line_samples(grid, coords.q[0], 0, SWEEP_SUBSTEPS)
        as_ = _line_samples(grid, conn.a[0], 0, SWEEP_SUBSTEPS)
        U, E, defect = _sweep_line(target, grid.spacing[0], qs, as_,
                                   base.m, base.v0, c[0])
        return MapFrameState(grid=grid, target=target, time=0.0, u=U, e=E,
                             periodicity_defect=defect)

    # axis 1 along the center row; sample tables are (2m+1, x2, x1), so the
    # row at the x2 center is [:, c[1], :]
    qs1 = _line_samples(grid, coords.q[0], 0, SWEEP_SUBSTEPS)[:, c[1], :]
    as1 = _line_samples(grid, conn.a[0], 0, SWEEP_SUBSTEPS)[:, c[1], :]
    Urow, Erow, defect1 = _sweep_line(target, grid.spacing[0], qs1, as1,
                                      base.m, base.v0, c[0])

    # axis 2 from every point of the row, batched over axis 1
    qs2 = _line_samples(grid, coords.q[1], 1, SWEEP_SUBSTEPS)
    as2 = _line_samples(grid, conn.a[1], 1, SWEEP_SUBSTEPS)
    Ucol, Ecol, defect2 = _sweep_line(target, grid.spacing[1], qs2, as2,
                                      Urow, Erow, c[1])
    # _sweep_line puts the swept (axis 2) index first; restore (x1, x2) order
    u = np.swapaxes(Ucol, 0, 1)
    e = np.swapaxes(Ecol, 0, 1)
    return MapFrameState(grid=grid, target=target, time=0.0, u=u, e=e,
                         periodicity_defect=max(defect1, defect2))


def time_evolve_point(target: geo.Target, u: np.ndarray, e: np.ndarray,
                      stages, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of the pointwise (u, e) time ODE.

    `stages` holds the (q0, a0) field pairs at t, t + dt/2 and t + dt.
    """
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    y = _rk4_transport(target, np.stack([u, e]), dt, stages)
    return y[0], y[1]


class TrajectoryProvider(Protocol):
    """Gauge-side trajectory that can serve RK4 stage snapshots."""

    grid: Grid
    target: geo.Target
    dt: float

    def initial_coordinates(self) -> tuple[Coordinates, Connection]: ...

    def advance(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Step the trajectory by dt and return [(q0, a0)] at t, t+dt/2, t+dt."""
        ...


@dataclass
class Nls1dTrajectory:
    """1D NLS trajectory in the parallel gauge a_1 = 0, a_0 = -kappa |q|^2 / 2."""

    grid: Grid
    q: np.ndarray
    dt: float
    target: geo.Target = geo.SPHERE

    def _fields(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q0 = 1j * spectral_derivative(self.grid, q, 0)
        a0 = -0.5 * self.target.kappa * np.abs(q) ** 2
        return q0, a0

    def initial_coordinates(self) -> tuple[Coordinates, Connection]:
        return (Coordinates(q=(self.q,)),
                Connection(a=(np.zeros(self.grid.shape),), gauge="parallel-1d"))

    def advance(self):
        q_t, kappa = self.q, self.target.kappa
        q_mid = nls1d_step(self.grid, q_t, self.dt / 2.0, kappa)
        self.q = nls1d_step(self.grid, q_mid, self.dt / 2.0, kappa)
        return [self._fields(q) for q in (q_t, q_mid, self.q)]


@dataclass
class GnlsTrajectory:
    """Coulomb-gauge GNLS trajectory advanced by half steps for stage data."""

    state: GnlsState
    dt: float

    @property
    def grid(self) -> Grid:
        return self.state.grid

    @property
    def target(self) -> geo.Target:
        return self.state.target

    def initial_coordinates(self) -> tuple[Coordinates, Connection]:
        return (Coordinates(q=self.state.q),
                Connection(a=self.state.connection(), gauge="coulomb"))

    def advance(self):
        s0 = self.state
        s_mid = gnls_step(s0, self.dt / 2.0)
        self.state = gnls_step(s_mid, self.dt / 2.0)
        fields = [s.fields() for s in (s0, s_mid, self.state)]
        return [(coords.q0, conn.a0) for coords, conn in fields]


def reconstruct_trajectory(provider: TrajectoryProvider, base: BasePointData,
                           n_steps: int, snapshot_every: int = 1
                           ) -> list[MapFrameState]:
    """Sweep the initial slice, then transport every grid point in time.

    Returns states at t = 0 and every `snapshot_every`-th step.
    """
    coords, conn = provider.initial_coordinates()
    state = initial_data_sweep(provider.target, provider.grid, coords, conn, base)
    out = [state]
    u, e = state.u, state.e
    for step in range(n_steps):
        stages = provider.advance()
        u, e = time_evolve_point(provider.target, u, e, stages, provider.dt)
        if (step + 1) % snapshot_every == 0:
            out.append(replace(state, time=(step + 1) * provider.dt, u=u, e=e))
    return out


def sm_residual(target: geo.Target, grid: Grid,
                states: tuple[MapFrameState, MapFrameState, MapFrameState],
                dt: float) -> float:
    """Discrete residual of the map equation du/dt = d_k J(u x d_k u).

    Centered time difference of u against the spectral flux divergence at
    the middle state, in the max norm.
    """
    prev, mid, nxt = states
    from .direct import flux_divergence
    dudt = (nxt.u - prev.u) / (2.0 * dt)
    res = dudt - flux_divergence(target, grid, mid.u)
    return float(np.max(np.abs(res)))


def uniqueness_gap(target: geo.Target, run_a: list[MapFrameState],
                   run_b: list[MapFrameState]) -> float:
    """max over (t, x) of |u - u~| + |e - e~| + |f - f~| with f = J(u x e)...

    f is the third frame leg Je, so the gap measures the full orthonormal
    triple; it is the discrete quantity controlled by the skew-symmetric
    uniqueness argument."""
    if len(run_a) != len(run_b):
        raise ValueError("runs have different lengths")
    gap = 0.0
    for sa, sb in zip(run_a, run_b):
        fa = geo.j_apply(target, sa.u, sa.e)
        fb = geo.j_apply(target, sb.u, sb.e)
        total = (np.linalg.norm(sa.u - sb.u, axis=-1)
                 + np.linalg.norm(sa.e - sb.e, axis=-1)
                 + np.linalg.norm(fa - fb, axis=-1))
        gap = max(gap, float(np.max(total)))
    return gap
