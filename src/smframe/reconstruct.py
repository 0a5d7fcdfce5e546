"""Rebuilding the map and frame from gauge-side trajectories.

The inverse direction of the correspondence: given (q, a) on a time slab,
each an array of shape (d, *grid.shape), plus one base point (m, v0),
integrate

    d u = Re(q) e + Im(q) Je
    d e = a Je - kappa Re(q) u            (ambient form of D e = a Je)

first along the spatial axes from the box center (axis 1 through the
center line, then axis 2 from every point of that line), then pointwise in
time using (q_0, a_0) at each step's start, midpoint and end, from one
RK4 step per dt of the Coulomb-gauge GNLS (`_gnls_stages`; in 1D a_1 = 0,
the cubic NLS), each starting from the memo of the last end state.  The
frame F = [u, e, Je] obeys F' = F A with A in so(3) (S^2) or so(2,1) (H^2),
so each step is a 4th-order Magnus step whose exponential has a closed form
(`_propagator`, shared by both transports) and keeps F on its group to
round-off.  The sweep samples (q, a) between grid points by zero padding,
and retracts and re-orthonormalizes once, at its output; the time
transport does so after every step.

The construction lives on the torus while the underlying identities hold
on R^d, so the spatial sweep need not close up; the wrap-around mismatch
is measured and reported as `periodicity_defect`, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import geometry as geo
from .direct import flux_divergence
from .errors import FrameInvalid, InvalidStep
from .field import Grid, march
from .gauge import validate_frame
from .gnls import GnlsState, _derive, gnls_rhs, gnls_step


@dataclass(frozen=True)
class MapFrameState:
    grid: Grid
    target: geo.Target
    time: float
    u: np.ndarray
    e: np.ndarray
    periodicity_defect: float = 0.0


#: |c| below which the coefficients of exp(A(w)) are summed as Taylor
#: series; the first dropped terms there are below |c|^5 / 11! ~ 3e-18.
_SERIES_CUT = 1e-2


def _magnus_generator(kappa: int, h: float, start, mid, end):
    """w of the 4th-order Magnus step Omega = A(w) of F' = F A over a step h,
    from (q, a) samples at the step's start, midpoint and end.

    A(p) = [[0, -kappa p1, -kappa p2], [p1, 0, -p3], [p2, p3, 0]] with
    p = (Re q, Im q, a) is the generator in the frame basis (u, e, Je), and
    [A(p), A(r)] = A((p x r)_1, (p x r)_2, kappa (p x r)_3), so the Simpson
    quadrature plus the commutator term h^2/12 [A_0, A_1] (its sign is that
    of a right action) is again some A(w).  Returns w as (w1 + i w2, w3).
    """
    (q0, a0), (qm, am), (q1, a1) = start, mid, end
    z = h / 6.0 * (q0 + 4.0 * qm + q1) + 1j * (h * h / 12.0) * (a0 * q1 - a1 * q0)
    w3 = (h / 6.0 * (a0 + 4.0 * am + a1)
          + kappa * (h * h / 12.0) * (q0.real * q1.imag - q0.imag * q1.real))
    return z, w3


def _propagator(kappa: int, z: np.ndarray, w3: np.ndarray) -> np.ndarray:
    """exp(A(w)) = I + f1 A(w) + f2 A(w)^2 as (..., 3, 3), its nine entries
    written out from w.  A^3 = c A with c = -(kappa (w1^2 + w2^2) + w3^2)
    gives f1 = sin r / r and f2 = (1 - cos r) / r^2 for c = -r^2, and
    sinh r / r and (cosh r - 1) / r^2 for c = r^2."""
    w1, w2 = z.real, z.imag
    c = -(kappa * (w1 * w1 + w2 * w2) + w3 * w3)
    f1 = 1.0 + c * (1 / 6 + c * (1 / 120 + c * (1 / 5040 + c / 362880)))
    f2 = 0.5 + c * (1 / 24 + c * (1 / 720 + c * (1 / 40320 + c / 3628800)))
    big = np.abs(c) >= _SERIES_CUT
    if np.any(big):
        cb = c[big]
        r = np.sqrt(np.abs(cb))
        rot = cb < 0
        f1[big] = np.where(rot, np.sin(r), np.sinh(r)) / r
        f2[big] = 2.0 * (np.where(rot, np.sin(0.5 * r), np.sinh(0.5 * r)) / r) ** 2
    m = np.empty(w3.shape + (3, 3))
    m[..., 0, 0] = 1.0 - kappa * f2 * (w1 * w1 + w2 * w2)
    m[..., 0, 1] = -kappa * (f1 * w1 + f2 * w2 * w3)
    m[..., 0, 2] = kappa * (f2 * w1 * w3 - f1 * w2)
    m[..., 1, 0] = f1 * w1 - f2 * w2 * w3
    m[..., 1, 1] = 1.0 - f2 * (kappa * w1 * w1 + w3 * w3)
    m[..., 1, 2] = -f1 * w3 - kappa * f2 * w1 * w2
    m[..., 2, 0] = f1 * w2 + f2 * w1 * w3
    m[..., 2, 1] = f1 * w3 - kappa * f2 * w1 * w2
    m[..., 2, 2] = 1.0 - f2 * (kappa * w2 * w2 + w3 * w3)
    return m


#: Magnus substeps per grid interval in the spatial sweep; the coefficients
#: are band-limited, so spectral interpolation supplies exact off-lattice
#: samples and the substeps buy pure integrator accuracy (h/m)^4.
SWEEP_SUBSTEPS = 8


def _line_samples(grid: Grid, f: np.ndarray, axis: int, n_sub: int) -> np.ndarray:
    """f sampled at x + (t / 2m) h for t = 0..2m, swept axis moved last, from
    its spectrum zero-padded to 2m n points; the Nyquist coefficient is split
    evenly between +-n/2 (its cosine representative)."""
    n, r = grid.n[axis], 2 * n_sub
    fh = np.moveaxis(np.fft.fft(f, axis=axis), axis, -1)
    fh[..., n // 2] *= 0.5
    zeros = np.zeros(fh.shape[:-1] + ((r - 1) * n - 1,))
    fine = r * np.fft.ifft(np.concatenate([fh[..., :n // 2 + 1], zeros, fh[..., n // 2:]], -1))
    if not np.iscomplexobj(f):
        fine = fine.real
    rows = np.moveaxis(fine.reshape(fh.shape[:-1] + (n, r)), -1, 0)
    return np.concatenate([rows, np.roll(rows[:1], -1, axis=-1)])  # row 2m: row 0 rolled


def _sweep(target: geo.Target, h: float, qs: np.ndarray, as_: np.ndarray,
           frame0: np.ndarray, center: int) -> tuple[np.ndarray, float]:
    """Transport the frame along one periodic line from its center.

    qs/as_ are `_line_samples` tables of shape (2m+1, batch..., n); frame0
    is the (..., 3, 3) frame at the center and may carry matching batch
    axes.  Each interval is crossed once: rightward from the center for
    n/2 intervals, leftward for the other n/2, the last of which probes
    the seam.  Returns the frames with the line index first and the wrap
    defect.
    """
    n_sub = (qs.shape[0] - 1) // 2
    n = qs.shape[-1]
    half = n // 2
    z, w3 = _magnus_generator(target.kappa, h / n_sub, (qs[0:-1:2], as_[0:-1:2]),
                              (qs[1::2], as_[1::2]), (qs[2::2], as_[2::2]))
    # intervals in walk order; a leftward crossing runs the substeps in
    # reverse with -w, the Magnus step over -h with the samples reversed
    right = (center + np.arange(half)) % n
    left = (center - 1 - np.arange(half)) % n
    z = np.concatenate([z[..., right], -z[::-1, ..., left]], axis=-1)
    w3 = np.concatenate([w3[..., right], -w3[::-1, ..., left]], axis=-1)
    sub = np.moveaxis(_propagator(target.kappa, z, w3), -3, 1)  # (m, walk, batch, 3, 3)
    step = sub[0]
    for factor in sub[1:]:
        step = step @ factor

    batch = np.broadcast_shapes(frame0.shape[:-2], qs.shape[1:-1])
    frames = np.empty((n,) + batch + (3, 3))
    frames[center] = frame0
    f = frames[center]
    for k in range(half):
        f = f @ step[k]
        frames[(center + 1 + k) % n] = f
    wrap = f
    f = frames[center]
    for k in range(half):
        f = f @ step[half + k]
        if k < half - 1:
            frames[(center - 1 - k) % n] = f
    gap = np.linalg.norm(f[..., :2] - wrap[..., :2], axis=-2)
    return frames, float(np.max(gap.sum(axis=-1)))


def initial_data_sweep(target: geo.Target, grid: Grid, q: np.ndarray, a: np.ndarray,
                       m: np.ndarray, v0: np.ndarray) -> MapFrameState:
    """Build (u, e) at one time slice from (q, a) by axis-ordered sweeps.

    u(center) = m (on the target) and e(center) = v0 (a unit tangent at m);
    axis 1 is swept through the center line first, then axis 2 from every
    point of that line.
    """
    try:
        validate_frame(target, m, v0)
    except FrameInvalid as exc:
        raise ValueError("m is not a point of the target or v0 is not a unit "
                         f"tangent at m: {exc}") from exc
    c = grid.center_index
    m = geo.retract(target, m)
    v0 = geo.orthonormalize_frame(target, m, v0)
    frame0 = np.stack([m, v0, geo.j_apply(target, m, v0)], axis=-1)  # columns u, e, Je

    line, q1, a1 = grid, q[0], a[0]
    if grid.dim == 2:
        # axis 1 is swept along the center row only, so sample just that row
        line, q1, a1 = Grid(grid.n[:1], grid.length[:1]), q1[:, c[1]], a1[:, c[1]]
    qs = _line_samples(line, q1, 0, SWEEP_SUBSTEPS)
    as_ = _line_samples(line, a1, 0, SWEEP_SUBSTEPS)
    frames, defect = _sweep(target, grid.spacing[0], qs, as_, frame0, c[0])

    if grid.dim == 2:
        # axis 2 from every point of the row, batched over axis 1
        qs = _line_samples(grid, q[1], 1, SWEEP_SUBSTEPS)
        as_ = _line_samples(grid, a[1], 1, SWEEP_SUBSTEPS)
        cols, defect2 = _sweep(target, grid.spacing[1], qs, as_, frames, c[1])
        # the swept (axis 2) index comes first; restore (x1, x2) order
        frames, defect = np.swapaxes(cols, 0, 1), max(defect, defect2)

    u = geo.retract(target, frames[..., 0])
    e = geo.orthonormalize_frame(target, u, frames[..., 1])
    return MapFrameState(grid=grid, target=target, time=0.0, u=u, e=e,
                         periodicity_defect=defect)


def time_evolve_point(target: geo.Target, u: np.ndarray, e: np.ndarray,
                      stages, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One Magnus step of the pointwise frame ODE F_t = F A(q0, a0), then
    retraction and re-orthonormalization.

    `stages` holds the (q0, a0) field pairs at t, t + dt/2 and t + dt.
    """
    if not 0 < dt < np.inf:
        raise InvalidStep(f"dt must be positive and finite, got {dt}")
    kappa = target.kappa
    frame = np.stack([u, e, geo.j_apply(target, u, e)], axis=-1)  # columns u, e, Je
    # only the new u and e columns are kept; Je is rebuilt from them
    frame = frame @ _propagator(kappa, *_magnus_generator(kappa, dt, *stages))[..., :2]
    u = geo.retract(target, frame[..., 0])
    return u, geo.orthonormalize_frame(target, u, frame[..., 1])


def _gnls_stages(s0: GnlsState, dt: float) -> tuple[GnlsState, list]:
    """One RK4 step of the Coulomb-gauge GNLS from s0 (in 1D, where a_1 = 0,
    the cubic NLS): the end state and [(q0, a0)] at t, t+dt/2, t+dt, the
    midpoint's from a fields-only pass on cubic Hermite dense output."""
    f0 = gnls_rhs(s0)  # first same as last: the last step's f1, memoized on s0
    s1 = gnls_step(s0, dt, k1=f0)
    f1 = gnls_rhs(s1)
    # q(t + dt/2) of the cubic Hermite interpolant, 4th-order accurate
    q_mid = 0.5 * (s0.q + s1.q) + (dt / 8.0) * (f0 - f1)
    mid = _derive(s0.target, s0.grid, q_mid, 1j, 1j, rhs=False)
    return s1, [(q0, a0) for q0, _, a0 in (s0.fields(), mid, s1.fields())]


def reconstruct_trajectory(start: GnlsState, dt: float, m: np.ndarray, v0: np.ndarray,
                           n_steps: int, snapshot_every: int = 1
                           ) -> Iterator[MapFrameState]:
    """Sweep the slice of `start` from the base point (m, v0) now; yield it,
    then every `snapshot_every`-th state of the time transport, each step of
    dt taken as it is drawn.  `start` is not changed; states are timed from 0."""
    gnls_rhs(start)  # the first step's k1; the sweep reads its connection from the same memo
    state = initial_data_sweep(start.target, start.grid, start.q, start.fields()[1], m, v0)
    gauge_side = start

    def advance(st: MapFrameState) -> MapFrameState:
        nonlocal gauge_side
        gauge_side, stages = _gnls_stages(gauge_side, dt)
        u, e = time_evolve_point(st.target, st.u, st.e, stages, dt)
        return replace(st, time=st.time + dt, u=u, e=e)

    return march(state, advance, n_steps, snapshot_every)


def sm_residual(target: geo.Target, grid: Grid,
                states: tuple[MapFrameState, MapFrameState, MapFrameState],
                dt: float) -> float:
    """Discrete residual of the map equation du/dt = d_k J(u x d_k u).

    Centered time difference of u against the spectral flux divergence at
    the middle state, in the max norm.
    """
    prev, mid, nxt = states
    dudt = (nxt.u - prev.u) / (2.0 * dt)
    res = dudt - flux_divergence(target, grid, mid.u)
    return float(np.max(np.abs(res)))
