"""Reference operators that the tests compare the program against."""

from dataclasses import replace

import numpy as np

from smframe import geometry as geo
from smframe.direct import flux_divergence
from smframe.field import (_fft, _ifft, _irfft, _rfft, gradient, integrate, rk4, roll_axes,
                           spectral_derivative)
from smframe.gnls import _derive, connection_from_coordinates


def _wavenumbers(grid, axis):
    n = grid.n[axis]
    return 2.0 * np.pi * np.fft.fftfreq(n, d=grid.length[axis] / n)


def complex_derivative(grid, f, axis):
    """ifft(i k fft(f)).real along the axis of a real f, grid axes first and
    any trailing axes after them; the Nyquist mode of k is zeroed."""
    shape = [1] * f.ndim
    shape[axis] = grid.n[axis]
    k = _wavenumbers(grid, axis)
    k[grid.n[axis] // 2] = 0.0
    fh = np.fft.fft(f, axis=axis)
    return np.fft.ifft(1j * k.reshape(shape) * fh, axis=axis).real


def dirichlet_density(target, grid, u):
    """sum_k <d_k u, d_k u> in the target metric from `complex_derivative`."""
    return sum(geo.inner(target, du, du)
               for du in (complex_derivative(grid, u, k) for k in range(grid.dim)))


def complex_laplacian(grid, f):
    """sum_k ifft(-k^2 fft(f)).real along each grid axis of a real f, grid axes
    first and any trailing axes after them; the Nyquist mode of k^2 is kept."""
    out = np.zeros_like(f)
    for axis in range(grid.dim):
        shape = [1] * f.ndim
        shape[axis] = grid.n[axis]
        k2 = _wavenumbers(grid, axis).reshape(shape) ** 2
        out += np.fft.ifft(-k2 * np.fft.fft(f, axis=axis), axis=axis).real
    return out


def complex_poisson(grid, rhs):
    """Mean-zero phi with Delta phi = rhs for a real rhs of the grid's shape:
    -fftn(rhs) / |k|^2 on the full spectrum, the Nyquist mode kept."""
    k2 = sum(k**2 for k in np.meshgrid(*[_wavenumbers(grid, axis)
                                          for axis in range(grid.dim)], indexing="ij"))
    ph = -np.fft.fftn(rhs) / np.where(k2 == 0.0, 1.0, k2)
    ph.flat[0] = 0.0
    return np.fft.ifftn(ph).real


def covariant_derivative(grid, q, a, axis):
    """D_axis q = (d_axis + i a_axis) q for complex q, on per-axis derivatives."""
    return spectral_derivative(grid, q, axis) + 1j * a * q


def nls1d_derive_elliptic(target, grid, q):
    """(q_0, a_0, dq/dt) of the 1-D Coulomb-gauge Schroedinger system (a_1 = 0)
    with a_0 solved from Delta a_0 = d_x kappa <q, i q_0> and anchored at the
    box corner: q_0 = i q_x and dq/dt = i q_xx - i a_0 q, 2/3-rule truncated,
    on complex transforms."""
    q = q[0]
    q0 = 1j * spectral_derivative(grid, q, 0)
    a0 = complex_poisson(grid, complex_derivative(grid, geo.curvature_f(target, q, q0), 0))
    a0 -= a0[0]
    k2 = _wavenumbers(grid, 0) ** 2
    spectrum = -1j * k2 * np.fft.fft(q) - 1j * np.fft.fft(a0 * q)
    return q0, a0, np.fft.ifft(grid.dealias_mask * spectrum)[np.newaxis]


def gnls_dissipation(state):
    """int sum_{k,l} |D_k q_l|^2 + |<q_k, i q_l>|^2, the density the parabolic
    Coulomb-gauge flow dissipates, on per-axis covariant derivatives."""
    grid, q = state.grid, state.q
    a = connection_from_coordinates(state.target, grid, q)
    total = np.zeros(grid.shape)
    for l in range(grid.dim):
        for k in range(grid.dim):
            total += np.abs(covariant_derivative(grid, q[l], a[k], k)) ** 2
            total += np.real(q[k] * np.conj(1j * q[l])) ** 2
    return integrate(grid, total)


def lorentz_weighted_energy(state):
    """int <grad u, grad u> u0 dx, the dissipation-rate weight of the
    parabolic flow into H^2 (u0 = cosh chi)."""
    du = gradient(state.grid, state.u)
    density = np.sum(geo.inner(state.target, du, du), axis=0)
    return float(integrate(state.grid, density * state.u[..., 0]))


def heisenberg_step(state, dt):
    """RK4 of du/dt = d_k J(u x d_k u) on grid values, each stage from
    `flux_divergence`, then a retraction (no retry)."""
    tg, grid = state.target, state.grid
    u = geo.retract(tg, rk4(lambda v: flux_divergence(tg, grid, v), state.u, dt))
    return replace(state, time=state.time + dt, u=u)


def lawson_heun(grid, y, h, c, nonlinear):
    """One Lawson-Heun step of dy/dt = c Lap y + N(y) on grid values: each
    application of the factor exp(-c |k|^2 h) transforms y forth and back,
    on real transforms for real y and c (the factor keeping the Nyquist mode)."""
    real = not (np.iscomplexobj(y) or np.iscomplexobj(c))
    propagator = np.exp(-c * (grid.half_k_squared if real else grid.k_squared) * h)

    def apply_linear(v):
        v = roll_axes(v, 0, grid.dim)
        out = (_irfft(grid, _rfft(grid, v) * propagator) if real
               else _ifft(grid, _fft(grid, v) * propagator))
        return roll_axes(out if np.iscomplexobj(y) else out.real, 0, -grid.dim)

    n0 = nonlinear(y)
    predictor = apply_linear(y + h * n0)
    n1 = nonlinear(predictor)
    return apply_linear(y + 0.5 * h * n0) + 0.5 * h * n1


def parabolic_sm_step(state, dt, epsilon):
    """`lawson_heun` of the parabolic map flow in divergence form, each stage
    from `flux_divergence` and `dirichlet_density`, then a retraction."""
    tg, grid = state.target, state.grid
    nu = epsilon / (1.0 + epsilon**2)

    def nonlinear(v):
        return (flux_divergence(tg, grid, v) / (1.0 + epsilon**2)
                - nu * dirichlet_density(tg, grid, v)[..., np.newaxis] * v)

    u = geo.retract(tg, lawson_heun(grid, state.u, dt, nu, nonlinear))
    return replace(state, time=state.time + dt, u=u)


def parabolic_sm_tension_step(state, dt, epsilon):
    """`lawson_heun` of the parabolic map flow in tension form, each stage
    J(v x Lap v) / (1 + eps^2) + nu <v, eta Lap v> v from `complex_laplacian`,
    then a retraction."""
    tg, grid = state.target, state.grid
    nu = epsilon / (1.0 + epsilon**2)

    def nonlinear(v):
        lv = complex_laplacian(grid, v)
        return (geo.j_apply(tg, v, lv) / (1.0 + epsilon**2)
                + nu * geo.inner(tg, v, lv)[..., np.newaxis] * v)

    u = geo.retract(tg, lawson_heun(grid, state.u, dt, nu, nonlinear))
    return replace(state, time=state.time + dt, u=u)


def parabolic_gnls_step(state, dt, epsilon):
    """`lawson_heun` of the parabolic Coulomb-gauge system on grid values,
    each stage the program's nonlinearity transformed back; the components
    of q move last for `lawson_heun` and back first for the state."""
    tg, grid = state.target, state.grid
    mu = (epsilon + 1j) / (1.0 + epsilon**2)

    def nonlinear(y):
        return np.moveaxis(_ifft(grid, _derive(tg, grid, np.moveaxis(y, -1, 0), mu, 0.0)[3]), 0, -1)

    q = lawson_heun(grid, np.moveaxis(state.q, 0, -1), dt, mu, nonlinear)
    return replace(state, time=state.time + dt, q=np.moveaxis(q, -1, 0))
