"""Periodic grid container and discrete calculus.

Everything lives on a uniform periodic box sampled with a power-of-two
number of points per axis.  Scalar fields are arrays of shape grid.shape;
vector fields carry a trailing axis of length 3, and stacked states (the
d coordinates q_l) a trailing component axis of length d.  Derivatives
and the Poisson solve are Fourier collocation operations, so they are
exact on band-limited data.

Coordinates are centered: axis i samples x = (j - n/2) h for j = 0..n-1,
so the box center is an exact grid point (index n/2 on every axis).

On real data `gradient`, `divergence` and `lawson_heun` use real transforms
over the grid axes, component axes moved first (`roll_axes`) so each component
is one contiguous block.  `spectral_derivative` takes one transform pair along
its axis (a real pair on real input).  The GNLS right-hand side does not use
it: it differentiates on the spectrum of one n-D transform per field, with the
per-axis multipliers `Grid.ik` and `Grid.half_ik`.  `poisson_solve` takes a
real right-hand side of the grid's shape, or its `rfftn` half spectrum, and
solves on the half spectrum.  Odd operators (derivatives, gradient, divergence)
zero the Nyquist mode; even ones (the Poisson and Lawson factors) keep it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CFLViolation, InvalidStep, NonZeroMean


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
            if not 0 < ln < np.inf:
                raise ValueError(f"box length must be positive and finite, got {ln}")

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

    @cached_property
    def half_k_squared(self) -> np.ndarray:
        """|k|^2 on the rfftn half spectrum, Nyquist kept (even operators)."""
        return self.k_squared[..., :self.n[-1] // 2 + 1]

    @cached_property
    def ik(self) -> tuple[np.ndarray, ...]:
        """Per-axis i k on the full spectrum, Nyquist zeroed (odd operators)."""
        return tuple(1j * _bcast(self, axis, k, 0) for axis, k in enumerate(self.odd_wavenumbers))

    @cached_property
    def half_ik(self) -> tuple[np.ndarray, ...]:
        """`ik` on the rfftn half spectrum."""
        return tuple(ik[..., :self.n[-1] // 2 + 1] for ik in self.ik)

    @cached_property
    def poisson_denominator(self) -> np.ndarray:
        """`half_k_squared` with the zero mode set to 1 (the mode is zeroed
        after dividing)."""
        return np.where(self.half_k_squared == 0.0, 1.0, self.half_k_squared)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3 rule: True where |k_axis| <= n_axis / 3 on every axis."""
        keep = [np.abs(np.fft.fftfreq(n) * n) <= n / 3.0 for n in self.n]
        return np.logical_and.reduce(np.meshgrid(*keep, indexing="ij"))


def _bcast(grid: Grid, axis: int, values: np.ndarray, extra_ndim: int) -> np.ndarray:
    shape = [1] * (grid.dim + extra_ndim)
    shape[axis] = -1  # n, or n//2 + 1 on the half spectrum
    return values.reshape(shape)


def roll_axes(f: np.ndarray, lead: int, shift: int) -> np.ndarray:
    """View of f with its axes after the first `lead` rolled left by `shift`;
    shift = grid.dim moves the grid axes last, -grid.dim moves them back."""
    rest = list(range(lead, f.ndim))
    return f.transpose(*range(lead), *rest[shift:], *rest[:shift])


def _rfft(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Real transform over the trailing grid axes (rfftn adds only overhead in 1D)."""
    return np.fft.rfft(f) if grid.dim == 1 else np.fft.rfftn(f, axes=(-2, -1))


def _irfft(grid: Grid, fh: np.ndarray) -> np.ndarray:
    return (np.fft.irfft(fh, n=grid.n[0]) if grid.dim == 1
            else np.fft.irfftn(fh, s=grid.shape, axes=(-2, -1)))


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """(d_1 f, ..., d_d f) on a new leading axis for real f: one forward and
    one inverse real transform for every component and derivative."""
    fh = _rfft(grid, roll_axes(np.asarray(f), 0, grid.dim))
    return roll_axes(_irfft(grid, np.stack([ik * fh for ik in grid.half_ik])), 1, -grid.dim)


def divergence(grid: Grid, flux: np.ndarray) -> np.ndarray:
    """sum_k d_k flux[k] for real fluxes stacked on a leading axis of length d."""
    fh = _rfft(grid, roll_axes(np.asarray(flux), 1, grid.dim))
    return roll_axes(_irfft(grid, sum(ik * fk for ik, fk in zip(grid.half_ik, fh))), 0, -grid.dim)


def spectral_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Fourier collocation d/dx_axis; the Nyquist mode of the derivative is zeroed.
    Real f takes a real transform pair along the axis, complex f a complex one."""
    f = np.asarray(f)
    extra, n = f.ndim - grid.dim, grid.n[axis]
    k = grid.odd_wavenumbers[axis]  # odd operator has no consistent Nyquist mode
    if np.iscomplexobj(f):
        fh = np.fft.fft(f, axis=axis)
        fh *= 1j * _bcast(grid, axis, k, extra)
        return np.fft.ifft(fh, axis=axis)
    fh = np.fft.rfft(f, axis=axis)
    fh *= 1j * _bcast(grid, axis, k[:n // 2 + 1], extra)
    return np.fft.irfft(fh, n=n, axis=axis)


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Unique mean-zero phi with (spectral) Laplacian(phi) = rhs, for a real
    rhs of the grid's shape or its (complex) `rfftn` half spectrum; the
    Nyquist mode is kept.

    Raises NonZeroMean when the torus solvability condition fails (the zero
    mode is checked against the max-norm); that signals broken divergence
    structure upstream, not a numerical issue here.
    """
    rhs = np.asarray(rhs)
    spectral, points = np.iscomplexobj(rhs), np.prod(grid.shape)
    ph = (rhs if spectral else _rfft(grid, rhs)) / grid.poisson_denominator
    mean = abs(ph.flat[0]) / points  # exactly 0 on a derivative's spectrum
    if mean and mean > 1e-10 * (scale := np.max(np.abs(rhs)) / (points if spectral else 1)):
        raise NonZeroMean(f"poisson rhs mean {mean:.3e} exceeds 1e-10 * max {scale:.3e}")
    ph.flat[0] = 0.0
    return -_irfft(grid, ph)


def integrate(grid: Grid, f: np.ndarray) -> float | complex | np.ndarray:
    """Trapezoid quadrature (exact-weight rule on a periodic grid).

    Vector fields are integrated componentwise.
    """
    f = np.asarray(f)
    total = np.sum(f, axis=tuple(range(grid.dim))) * grid.cell_volume
    if total.ndim == 0:
        return total.item()
    return total


#: default dispersive stability constant: warn when dt > CFL_CONSTANT * h^2
CFL_CONSTANT = 0.5 / np.pi**2


def check_cfl(grid: Grid, dt: float) -> None:
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    limit = CFL_CONSTANT * min(grid.spacing) ** 2
    if dt > limit:
        warnings.warn(f"dt = {dt:.3e} exceeds dispersive stability estimate "
                      f"{limit:.3e}", CFLViolation)


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


def march(state, advance, n_steps: int, every: int):
    """Yield `state`, then the state after every `every`-th of `n_steps`
    applications of `advance`."""
    yield state
    for step in range(1, n_steps + 1):
        state = advance(state)
        if step % every == 0:
            yield state


def lawson_heun(grid: Grid, y: np.ndarray, h: float, c: complex,
                nonlinear) -> np.ndarray:
    """One Lawson (integrating-factor) Heun step of dy/dt = c Lap y + N(y):
    the stiff factor exp(-c |k|^2 h) is exact in Fourier space, and N goes
    through an explicit trapezoidal corrector.  Real y stays real; with a
    real c it steps on real transforms, its factor keeping the Nyquist mode."""
    real = not (np.iscomplexobj(y) or np.iscomplexobj(c))
    axes = tuple(range(-grid.dim, 0))
    propagator = np.exp(-c * (grid.half_k_squared if real else grid.k_squared) * h)

    def apply_linear(v):
        v = roll_axes(v, 0, grid.dim)
        out = (_irfft(grid, _rfft(grid, v) * propagator) if real
               else np.fft.ifftn(np.fft.fftn(v, axes=axes) * propagator, axes=axes))
        return roll_axes(out if np.iscomplexobj(y) else out.real, 0, -grid.dim)

    n0 = nonlinear(y)
    predictor = apply_linear(y + h * n0)
    n1 = nonlinear(predictor)
    return apply_linear(y + 0.5 * h * n0) + 0.5 * h * n1
