"""Reference operators that the tests compare the program against."""

from dataclasses import replace

import numpy as np

from smframe import geometry as geo
from smframe.direct import flux_divergence
from smframe.field import rk4, spectral_derivative


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


def heisenberg_step(state, dt):
    """RK4 of du/dt = d_k J(u x d_k u) on grid values, each stage from
    `flux_divergence`, then a retraction (no retry)."""
    tg, grid = state.target, state.grid
    u = geo.retract(tg, rk4(lambda s, v: flux_divergence(tg, grid, v), state.u, dt))
    return replace(state, time=state.time + dt, u=u)
