"""Evolution solvers on the gauge side.

Covers the 1D cubic NLS (split-step Fourier) and, for either curvature
sign, the d-dimensional Coulomb-gauge systems

    D_t q_l = mu (D_k D_k q_l + i f_lk q_k),   f_lk = kappa <q_l, i q_k>,
    q_0 = mu D_k q_k,
    Delta a_j = d_k f_kj,
    Delta a_0 = d_l f_l0,                      f_l0 = kappa <q_l, i q_0>,

with mu = i for the Schroedinger flow and mu = 1 / (eps - i)
= (eps + i) / (1 + eps^2) for its parabolic perturbation.  Both flows derive
(q_0, a, a_0) and the right-hand side in one pass (`_derive`): in the Coulomb
gauge D_k D_k q = Delta q + 2i a_k d_k q - |a|^2 q, so one forward transform
of q gives every d_k q_l, Delta q_l is applied on the spectrum inside
the 2/3-rule truncation, and a, a_0 are products of half spectra with the
cached Delta^-1 d_k; in 1D, where a = f = 0, no term they multiply is formed.
`_derive` hands back the spectra of the right-hand side: `GnlsState` memoizes
its pass with them transformed back, which `fields()` and `gnls_rhs` both read,
and the parabolic step keeps them as they are.  q, a, the right-hand side and
their spectra are arrays of shape (d, *grid.shape), components first, and
`fields()` returns the plain tuple (q_0, a, a_0).

The connection is never evolved: every stage recomputes a_j from q by the
elliptic solve, so the Coulomb constraint is exact and any compatibility
drift is pure scheme error.  Spatial connection components are mean-zero;
a_0 is anchored to vanish at the box corner (the grid point farthest from
the centered data), emulating decay at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import InvalidStep, SmframeError
from .field import Grid, _fft, _ifft, _irfft, _rfft, check_cfl, integrate, lawson_heun, rk4, \
    spectral_derivative
from .gauge import best_reference_frame, coulomb_fix, extract_coordinates, \
    remove_mean_connection, rotate_frame

# ---------------------------------------------------------------------------
# 1D cubic NLS
# ---------------------------------------------------------------------------

def _nls1d_strang(grid: Grid, q: np.ndarray, dt: float, kappa: int) -> np.ndarray:
    phase = np.exp(1j * (kappa / 2.0) * np.abs(q) ** 2 * (dt / 2.0))
    q = q * phase
    q = np.fft.ifft(np.fft.fft(q) * np.exp(-1j * grid.k_squared * dt))
    phase = np.exp(1j * (kappa / 2.0) * np.abs(q) ** 2 * (dt / 2.0))
    return q * phase


#: fourth-order triple-jump composition weights for symmetric splittings
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def nls1d_step(grid: Grid, q: np.ndarray, dt: float, kappa: int) -> np.ndarray:
    """One split step of dq/dt = i q_xx + i (kappa/2) |q|^2 q.

    A fourth-order composition of Strang substeps; every substep is a
    pointwise/Fourier isometry, so the discrete mass sum |q|^2 is
    conserved to round-off.
    """
    if not 0 < dt < np.inf:
        raise InvalidStep(f"dt must be positive and finite, got {dt}")
    q = _nls1d_strang(grid, q, _W1 * dt, kappa)
    q = _nls1d_strang(grid, q, _W0 * dt, kappa)
    return _nls1d_strang(grid, q, _W1 * dt, kappa)


def nls1d_energy(grid: Grid, q: np.ndarray, kappa: int) -> float:
    qx = spectral_derivative(grid, q, 0)
    return integrate(grid, np.abs(qx) ** 2 - (kappa / 4.0) * np.abs(q) ** 4)


# ---------------------------------------------------------------------------
# Coulomb-gauge state and elliptic solves
# ---------------------------------------------------------------------------

def connection_from_coordinates(target: geo.Target, grid: Grid, q: np.ndarray) -> np.ndarray:
    """Spatial Coulomb connection: Delta a_j = d_k f_kj, mean zero, solved on
    the spectrum of f_12.  In 1D the curvature two-form vanishes and a_1 = 0."""
    if grid.dim == 1:
        return np.zeros(q.shape)
    fh = _rfft(grid, geo.curvature_f(target, q[0], q[1]))
    p1, p2 = grid.half_poisson_ik
    return _irfft(grid, np.array([-p2 * fh, p1 * fh]))


def a0_from_q0(target: geo.Target, grid: Grid, q: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Solve Delta a_0 = d_l f_l0 with f_l0 = kappa <q_l, i q_0>, corner-anchored."""
    fh = _rfft(grid, geo.curvature_f(target, q, q0))
    a0 = _irfft(grid, sum(p * fl for p, fl in zip(grid.half_poisson_ik, fh)))
    return a0 - a0[(0,) * grid.dim]  # vanishes at the box corner (index 0...0)


def _derive(target: geo.Target, grid: Grid, q: np.ndarray, mu: complex, lap: complex,
            rhs: bool = True):
    """(q_0, a, a_0, spectra): q_0 = mu D_k q_k, the Coulomb connection (a, a_0), and the
    full spectra of dq_l/dt less (mu - lap) Delta q_l, 2/3-rule truncated, where
    dq_l/dt = mu Delta q_l + i mu (2 a_k d_k q_l + f_lk q_k) - (mu |a|^2 + i a_0) q_l.
    With rhs=False just (q_0, a, a_0), bitwise the same, from the d_l q_l alone."""
    a = connection_from_coordinates(target, grid, q)
    qh = _fft(grid, q)
    r, q0 = [], 0.0  # q0 sums D_k q_k until scaled by mu
    for l, ql in enumerate(q):
        rl = 0.0  # 2 a_k d_k q_l + f_lk q_k
        for k, (ik, ak) in enumerate(zip(grid.ik, a)):
            if k != l and not rhs:
                continue
            dq = _ifft(grid, ik * qh[l])
            if k == l:
                q0 = q0 + (dq + 1j * ak * ql if grid.dim == 2 else dq)
            if grid.dim == 2 and rhs:
                dq *= 2.0 * ak
                rl += dq
            del dq  # freed before the next transform, where a step's memory peaks
        if grid.dim == 2 and rhs:  # in 1D a = 0 and f = 0: no term they multiply is formed
            rl += geo.curvature_f(target, ql, q[1 - l]) * q[1 - l]  # f_ll = 0
        r.append(rl)
    q0 *= mu
    a0 = a0_from_q0(target, grid, q, q0)
    if not rhs:
        return q0, a, a0
    c = 1j * a0 if grid.dim == 1 else mu * sum(ak * ak for ak in a) + 1j * a0
    for ql, spectrum in zip(q, qh):  # the spectrum of q_l becomes that of dq_l/dt
        rl = r.pop(0)  # freed once used
        rl *= 1j * mu
        rl -= c * ql
        spectrum *= -lap * grid.k_squared
        spectrum += _fft(grid, rl)
        spectrum *= grid.dealias_mask
    return q0, a, a0, qh


@dataclass(frozen=True)
class GnlsState:
    """Immutable Coulomb-gauge state; the connection is derived from q."""

    grid: Grid
    target: geo.Target
    time: float
    q: np.ndarray

    def fields(self) -> tuple:
        """(q_0 = i D_k q_k, a, a_0): the time coordinate and the Coulomb connection,
        from the memo shared with `gnls_rhs`; on a state with no derivation yet
        this derives the right-hand side too."""
        return self._fields[:3]

    # the memo is kept in the instance __dict__, outside the dataclass fields,
    # so dataclasses.replace never carries it to a state with another q
    @cached_property
    def _fields(self) -> tuple:
        q0, a, a0, spectra = _derive(self.target, self.grid, self.q, 1j, 1j)
        dq_dt = _ifft(self.grid, spectra)
        dq_dt.flags.writeable = False
        return q0, a, a0, dq_dt


def gnls_seed_from_map(target: geo.Target, grid: Grid,
                       u: np.ndarray) -> tuple[GnlsState, np.ndarray]:
    """Seed a GNLS state at t = 0 through frame extraction, along
    `best_reference_frame`, plus gauge fixing.

    Going through a genuine map guarantees the compatibility conditions at
    t = 0 to scheme accuracy.  Returns the state together with the frame
    rotated into the fixed gauge, so that extracting coordinates along the
    returned frame reproduces state.q (needed to anchor reconstructions).
    In 1D the Coulomb condition leaves a_1 constant, so removing its mean
    gives the parallel gauge a_1 = 0.
    """
    e = best_reference_frame(target, u)
    q, a = extract_coordinates(target, grid, u, e)
    q, a, theta = coulomb_fix(grid, q, a)
    q, a, ramp = remove_mean_connection(grid, q, a)
    state = GnlsState(grid=grid, target=target, time=0.0, q=q)
    return state, rotate_frame(target, u, e, theta + ramp)


# ---------------------------------------------------------------------------
# Schroedinger evolution
# ---------------------------------------------------------------------------

def gnls_rhs(state: GnlsState) -> np.ndarray:
    """Right-hand side dq_l/dt of the Coulomb-gauge system, shaped like q,
    2/3-rule truncated; the state's memo, so read-only."""
    return state._fields[3]


def gnls_step(state: GnlsState, dt: float, k1: np.ndarray | None = None) -> GnlsState:
    """Classical RK4 step; the connection is re-derived at every stage.
    A given k1 must equal gnls_rhs(state), e.g. from the step that ended there."""
    check_cfl(state.grid, dt)

    def f(s, y):
        return gnls_rhs(GnlsState(state.grid, state.target, state.time, y))

    return replace(state, time=state.time + dt, q=rk4(f, state.q, dt, k1))


# ---------------------------------------------------------------------------
# Parabolic perturbation
# ---------------------------------------------------------------------------

def parabolic_gnls_step(state: GnlsState, dt: float, epsilon: float) -> GnlsState:
    """Lawson (integrating-factor) Heun step of the perturbed system.

    The stiff diffusion-dispersion factor exp(mu Delta dt) is applied
    exactly in Fourier space; the rest of the right-hand side, dealiased,
    goes through an explicit trapezoidal corrector, so modes above the 2/3
    cut feel the exact factor only.  For the hyperbolic target the energy
    E = 1/2 int sum |q_l|^2 must not increase across a step; this is
    asserted because an increase means the dissipation structure broke.
    """
    if not 0 < dt < np.inf:
        raise InvalidStep(f"dt must be positive and finite, got {dt}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidStep(f"epsilon must lie in (0, 1], got {epsilon}")
    tg, grid = state.target, state.grid
    mu = (epsilon + 1j) / (1.0 + epsilon**2)

    def nonlinear(qh):
        # the spectra of the right-hand side less mu Lap q_l, dealiased
        return _derive(tg, grid, _ifft(grid, qh), mu, 0.0)[3]

    q = state.q
    qh = lawson_heun(_fft(grid, q), dt, np.exp(-mu * grid.k_squared * dt), nonlinear)
    qn = _ifft(grid, qh)

    if tg.kind == "hyperbolic":
        e_old = sum(integrate(grid, np.abs(qi) ** 2) for qi in q)
        e_new = sum(integrate(grid, np.abs(qi) ** 2) for qi in qn)
        if e_new > e_old * (1.0 + 1e-12) + 1e-14:
            raise SmframeError(
                f"parabolic energy increased: {e_old:.15e} -> {e_new:.15e}")
    return replace(state, time=state.time + dt, q=qn)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

def gnls_mass(state: GnlsState) -> float:
    """E(t) = 1/2 int sum_l |q_l|^2."""
    return 0.5 * sum(integrate(state.grid, np.abs(qi) ** 2) for qi in state.q)


def gnls_dissipation(state: GnlsState) -> float:
    """int sum_{k,l} |D_k q_l|^2 + |<q_k, i q_l>|^2 (the dissipated density)."""
    grid, q = state.grid, state.q
    a = connection_from_coordinates(state.target, grid, q)
    total = np.zeros(grid.shape)
    for l in range(grid.dim):
        for k in range(grid.dim):  # D_k q_l = d_k q_l + i a_k q_l
            total += np.abs(spectral_derivative(grid, q[l], k) + 1j * a[k] * q[l]) ** 2
            total += np.real(q[k] * np.conj(1j * q[l])) ** 2
    return integrate(grid, total)
