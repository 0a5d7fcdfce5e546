"""Named initial conditions.

Every preset documents its closed form.  Field presets return the complex
coordinate q(0, x); map presets return the ambient map u(0, x) already on
the constraint set.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .field import Grid


def soliton(grid: Grid, b: float = 2.0) -> np.ndarray:
    """q(0, x) = b sech(b x / 2); evolves as q(t, x) = q(0, x) e^{i b^2 t / 4}
    under dq/dt = i(q_xx + |q|^2 q / 2).

    b = 2 gives the classical 2 sech(x) e^{it} profile.
    """
    if grid.dim != 1:
        raise ValueError("soliton preset is one-dimensional")
    x = grid.axis_coord(0)
    return (b / np.cosh(0.5 * b * x)).astype(complex)


def plane_wave(grid: Grid, c: float = 1.0) -> np.ndarray:
    """q(0, x) = c; evolves as c e^{i kappa c^2 t / 2} (zero dispersion)."""
    return np.full(grid.shape, c, dtype=complex)


def great_circle(grid: Grid, turns: int | None = None) -> np.ndarray:
    """Sphere map u(x) = (cos kx, sin kx, 0) with k = 2 pi turns / L.

    Defaults to the winding closest to unit speed, k ~ 1; a stationary
    solution of the Heisenberg flow for any winding.
    """
    if grid.dim != 1:
        raise ValueError("great-circle preset is one-dimensional")
    L = grid.length[0]
    if turns is None:
        turns = max(1, round(L / (2.0 * np.pi)))
    k = 2.0 * np.pi * turns / L
    x = grid.axis_coord(0)
    return np.stack([np.cos(k * x), np.sin(k * x), np.zeros_like(x)], axis=-1)


def gaussian_bump_chi(grid: Grid, amplitude: float = 0.5,
                      width: float = 1.0) -> np.ndarray:
    """Hyperboloid map with a radial bump in the distance coordinate.

    chi(x) = A exp(-|x|^2 / (2 w^2)), theta = 0:
    u = (cosh chi, sinh chi, 0), smooth everywhere.
    """
    r2 = sum(x**2 for x in grid.coords())
    chi = amplitude * np.exp(-r2 / (2.0 * width**2))
    u = np.zeros(grid.shape + (3,))
    u[..., 0] = np.cosh(chi)
    u[..., 1] = np.sinh(chi)
    return u


def random_bandlimited(grid: Grid, kmax: int = 4, amplitude: float = 0.1,
                       seed: int = 0) -> np.ndarray:
    """Random complex field supported on Fourier modes |k_axis| <= kmax.

    Independent standard-normal real and imaginary parts per retained
    mode, scaled so the max-norm is `amplitude`.  Deterministic in `seed`.
    """
    rng = np.random.default_rng(seed)
    fh = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for axis, n in enumerate(grid.n):
        modes = np.fft.fftfreq(n, d=1.0 / n).round().astype(int)
        keep = np.abs(modes) <= kmax
        fh *= keep.reshape([-1 if a == axis else 1 for a in range(grid.dim)])
    f = np.fft.ifftn(fh)
    peak = np.max(np.abs(f))
    if peak > 0:
        f = f * (amplitude / peak)
    return f


def perturbed_great_circle(grid: Grid, amplitude: float = 0.05,
                           kmax: int = 4, seed: int = 0) -> np.ndarray:
    """Great circle plus a band-limited normal displacement, re-projected
    onto the sphere; a smooth non-stationary sphere map."""
    u = great_circle(grid)
    bump = random_bandlimited(grid, kmax, amplitude, seed).real
    u = u.copy()
    u[..., 2] += bump
    return geo.retract(geo.SPHERE, u)


def sphere_bump_2d(grid: Grid, amplitude: float = 0.5,
                   width: float = 1.0) -> np.ndarray:
    """2D sphere map: north pole tilted by two offset Gaussian bumps.

    u = normalize(b1, b2, 1) with b_i = A exp(-|x -+ w x_hat_i|^2 / (2 w^2));
    the offsets make the image genuinely two-dimensional, so the curvature
    two-form of its frame bundle is nontrivial.  Numerically compactly
    supported away from the torus seam for widths small against the box.
    """
    if grid.dim != 2:
        raise ValueError("sphere bump preset is two-dimensional")
    two_w2 = 2.0 * width**2  # a float overflow raises here, before numpy warns of it
    x1 = grid.axis_coord(0)[:, np.newaxis]
    x2 = grid.axis_coord(1)[np.newaxis, :]
    u = np.zeros(grid.shape + (3,))
    u[..., 0] = amplitude * np.exp(-((x1 - width)**2 + x2**2) / two_w2)
    u[..., 1] = amplitude * np.exp(-(x1**2 + (x2 + width)**2) / two_w2)
    u[..., 2] = 1.0
    return geo.retract(geo.SPHERE, u)
