"""Periodic grid container and discrete calculus.

Everything lives on a uniform periodic box sampled with a power-of-two
number of points per axis.  Scalar fields are arrays of shape grid.shape;
vector fields carry a trailing axis of length 3, and stacked states (the
d coordinates q_l) a trailing component axis of length d.  Derivatives,
the Poisson solve, and interpolation are Fourier collocation operations,
so they are exact on band-limited data.

Coordinates are centered: axis i samples x = (j - n/2) h for j = 0..n-1,
so the box center is an exact grid point (index n/2 on every axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonZeroMean


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 dimensions."""

    n: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "length", tuple(float(v) for v in self.length))
        if len(self.n) not in (1, 2) or len(self.length) != len(self.n):
            raise ValueError("grid must be 1D or 2D with matching n/length")
        for n in self.n:
            if n < 16 or n & (n - 1):
                raise ValueError(f"points per axis must be a power of two >= 16, got {n}")
        for ln in self.length:
            if ln <= 0:
                raise ValueError("box length must be positive")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(ln / n for ln, n in zip(self.length, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def center_index(self) -> tuple[int, ...]:
        return tuple(n // 2 for n in self.n)

    def axis_coord(self, axis: int) -> np.ndarray:
        n, h = self.n[axis], self.spacing[axis]
        return (np.arange(n) - n // 2) * h

    def coords(self) -> list[np.ndarray]:
        """Coordinate arrays of full grid shape, centered at the box center."""
        axes = [self.axis_coord(i) for i in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def wavenumber(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n[axis], d=self.spacing[axis])

    @cached_property
    def odd_wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumbers with the Nyquist mode zeroed (odd operators)."""
        return tuple(np.where(np.arange(n) == n // 2, 0.0, self.wavenumber(axis))
                     for axis, n in enumerate(self.n))

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 broadcast to full grid shape."""
        out = np.zeros(self.shape)
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n[axis]
            out = out + self.wavenumber(axis).reshape(shape) ** 2
        return out


def _bcast(grid: Grid, axis: int, values: np.ndarray, extra_ndim: int) -> np.ndarray:
    shape = [1] * (grid.dim + extra_ndim)
    shape[axis] = grid.n[axis]
    return values.reshape(shape)


def spectral_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Fourier collocation d/dx_axis; the Nyquist mode of the derivative is zeroed."""
    f = np.asarray(f)
    extra = f.ndim - grid.dim
    k = grid.odd_wavenumbers[axis]  # odd operator has no consistent Nyquist mode
    fh = np.fft.fft(f, axis=axis)
    dfh = 1j * _bcast(grid, axis, k, extra) * fh
    df = np.fft.ifft(dfh, axis=axis)
    return df if np.iscomplexobj(f) else df.real


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    extra = f.ndim - grid.dim
    fh = np.fft.fftn(f, axes=tuple(range(grid.dim)))
    k2 = grid.k_squared.reshape(grid.shape + (1,) * extra)
    out = np.fft.ifftn(-k2 * fh, axes=tuple(range(grid.dim)))
    return out if np.iscomplexobj(f) else out.real


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Unique mean-zero phi with (spectral) Laplacian(phi) = rhs.

    Raises NonZeroMean when the torus solvability condition fails; that
    signals broken divergence structure upstream, not a numerical issue here.
    """
    rhs = np.asarray(rhs)
    scale = np.max(np.abs(rhs))
    mean = abs(np.mean(rhs))
    if scale > 0 and mean > 1e-10 * scale:
        raise NonZeroMean(f"poisson rhs mean {mean:.3e} exceeds 1e-10 * max {scale:.3e}")
    fh = np.fft.fftn(rhs, axes=tuple(range(grid.dim)))
    k2 = grid.k_squared.copy()
    k2.flat[0] = 1.0
    ph = -fh / k2
    ph.flat[0] = 0.0
    out = np.fft.ifftn(ph, axes=tuple(range(grid.dim)))
    return out if np.iscomplexobj(rhs) else out.real


def integrate(grid: Grid, f: np.ndarray) -> float | complex | np.ndarray:
    """Trapezoid quadrature (exact-weight rule on a periodic grid).

    Vector fields are integrated componentwise.
    """
    f = np.asarray(f)
    total = np.sum(f, axis=tuple(range(grid.dim))) * grid.cell_volume
    if total.ndim == 0:
        return total.item()
    return total


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """2/3-rule truncation: zero every mode with |k_axis| > n_axis/3."""
    f = np.asarray(f)
    extra = f.ndim - grid.dim
    fh = np.fft.fftn(f, axes=tuple(range(grid.dim)))
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        modes = np.fft.fftfreq(grid.n[axis]) * grid.n[axis]
        keep &= _bcast(grid, axis, np.abs(modes) <= grid.n[axis] / 3.0, 0)
    fh *= keep.reshape(grid.shape + (1,) * extra)
    out = np.fft.ifftn(fh, axes=tuple(range(grid.dim)))
    return out if np.iscomplexobj(f) else out.real


def fractional_shift(grid: Grid, f: np.ndarray, axis: int,
                     frac: float) -> np.ndarray:
    """Values of f at x + frac * h along `axis` by spectral phase shift.

    The Nyquist mode is interpolated as its cosine representative (the
    symmetric choice), giving the identity at frac = 0 and a plain roll at
    frac = 1.
    """
    f = np.asarray(f)
    extra = f.ndim - grid.dim
    k = grid.odd_wavenumbers[axis]
    phase = np.exp(1j * k * grid.spacing[axis] * frac).astype(complex)
    phase[grid.n[axis] // 2] = np.cos(np.pi * frac)
    fh = np.fft.fft(f, axis=axis) * _bcast(grid, axis, phase, extra)
    out = np.fft.ifft(fh, axis=axis)
    return out if np.iscomplexobj(f) else out.real


def rk4(f, y: np.ndarray, h: float, k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(s, y), where s in {0, 1/2, 1} is
    the stage time as a fraction of h (for coefficients sampled in time); a
    given k1 stands in for f(0, y)."""
    if k1 is None:
        k1 = f(0.0, y)
    k2 = f(0.5, y + 0.5 * h * k1)
    k3 = f(0.5, y + 0.5 * h * k2)
    k4 = f(1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def lawson_heun(grid: Grid, y: np.ndarray, h: float, c: complex,
                nonlinear) -> np.ndarray:
    """One Lawson (integrating-factor) Heun step of dy/dt = c Lap y + N(y):
    the stiff factor exp(-c |k|^2 h) is exact in Fourier space, and N goes
    through an explicit trapezoidal corrector.  Real y stays real."""
    axes = tuple(range(grid.dim))
    propagator = np.exp(-c * grid.k_squared * h).reshape(
        grid.shape + (1,) * (y.ndim - grid.dim))

    def apply_linear(v):
        out = np.fft.ifftn(np.fft.fftn(v, axes=axes) * propagator, axes=axes)
        return out if np.iscomplexobj(y) else out.real

    n0 = nonlinear(y)
    predictor = apply_linear(y + h * n0)
    n1 = nonlinear(predictor)
    return apply_linear(y + 0.5 * h * n0) + 0.5 * h * n1
