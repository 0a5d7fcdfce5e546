"""Periodic grid container and discrete calculus.

Everything lives on a uniform periodic box sampled with a power-of-two
number of points per axis.  Scalar fields are arrays of shape grid.shape;
vector fields carry a trailing axis of length 3, and the d frame coordinates
q_l, a_l a leading axis of length d.  Derivatives and the elliptic inverse
are Fourier collocation operations, so they are exact on band-limited data.

Grid points are centered: axis i samples x = (j - n/2) h for j = 0..n-1,
so the box center is an exact grid point (index n/2 on every axis).

On real data `gradient` uses real transforms over the grid axes, component
axes moved first (`roll_axes`) so each component is one contiguous block.
`spectral_derivative` takes one complex transform pair along its axis of a
complex field of the grid's shape.  The GNLS right-hand side differentiates
on the spectra of one `_fft` of all q_l (1-D transforms on a 1-D grid) with
the multipliers `Grid.ik` and `Grid.half_ik`.  Every elliptic inverse,
Delta phi = d_k f, is the cached multiplier `Grid.half_poisson_ik` applied
to the half spectrum of f.  Odd operators (derivatives, gradient) zero the
Nyquist mode; even ones (the Poisson and Lawson factors) keep it.  The
integrators `rk4` and `lawson_heun` make no transform: each stepper hands
them its own spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CFLViolation, InvalidStep


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
        return tuple(1j * np.where(np.arange(n) == n // 2, 0.0, self.wavenumber(axis))
                     .reshape([n if i == axis else 1 for i in range(self.dim)])
                     for axis, n in enumerate(self.n))

    @cached_property
    def half_ik(self) -> tuple[np.ndarray, ...]:
        """`ik` on the rfftn half spectrum."""
        return tuple(ik[..., :self.n[-1] // 2 + 1] for ik in self.ik)

    @cached_property
    def half_poisson_ik(self) -> tuple[np.ndarray, ...]:
        """Per-axis Delta^-1 d_k on the half spectrum, -ik / |k|^2, zero mode 0
        (its denominator is 1 there, where ik is 0)."""
        denominator = np.where(self.half_k_squared == 0.0, 1.0, self.half_k_squared)
        return tuple(-ik / denominator for ik in self.half_ik)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3 rule: True where |k_axis| <= n_axis / 3 on every axis."""
        keep = [np.abs(np.fft.fftfreq(n) * n) <= n / 3.0 for n in self.n]
        return np.logical_and.reduce(np.meshgrid(*keep, indexing="ij"))


def roll_axes(f: np.ndarray, lead: int, shift: int) -> np.ndarray:
    """View of f with its axes after the first `lead` rolled left by `shift`;
    shift = grid.dim moves the grid axes last, -grid.dim moves them back."""
    rest = list(range(lead, f.ndim))
    return f.transpose(*range(lead), *rest[shift:], *rest[:shift])


def _fft(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Complex transform over the trailing grid axes (fftn adds only overhead in 1D)."""
    return np.fft.fft(f) if grid.dim == 1 else np.fft.fftn(f, axes=(-2, -1))


def _ifft(grid: Grid, fh: np.ndarray) -> np.ndarray:
    return np.fft.ifft(fh) if grid.dim == 1 else np.fft.ifftn(fh, axes=(-2, -1))


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


def spectral_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Fourier collocation d/dx_axis of a complex field of the grid's shape;
    the Nyquist mode of the derivative is zeroed."""
    return np.fft.ifft(np.fft.fft(f, axis=axis) * grid.ik[axis], axis=axis)


def integrate(grid: Grid, f: np.ndarray) -> float | complex | np.ndarray:
    """Trapezoid quadrature (exact-weight rule on a periodic grid).

    Vector fields are integrated componentwise.
    """
    f = np.asarray(f)
    total = np.sum(f, axis=tuple(range(grid.dim))) * grid.cell_volume
    if total.ndim == 0:
        return total.item()
    return total


#: the dispersive stability estimate of the explicit steppers, a fixed
#: constant: `check_cfl` warns when dt > CFL_CONSTANT * h^2, h the finest spacing
CFL_CONSTANT = 0.5 / np.pi**2


def check_cfl(grid: Grid, dt: float) -> None:
    if not 0 < dt < np.inf:
        raise InvalidStep(f"dt must be positive and finite, got {dt}")
    limit = CFL_CONSTANT * min(grid.spacing) ** 2
    if dt > limit:
        warnings.warn(f"dt = {dt:.3e} exceeds dispersive stability estimate "
                      f"{limit:.3e}", CFLViolation)


def rk4(f, y: np.ndarray, h: float, k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of the autonomous dy/dt = f(y); a given k1
    stands in for f(y)."""
    if k1 is None:
        k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def march(state, advance, n_steps: int, every: int):
    """Yield `state`, then the state after every `every`-th of `n_steps`
    applications of `advance`."""
    yield state
    for step in range(1, n_steps + 1):
        state = advance(state)
        if step % every == 0:
            yield state


def lawson_heun(y: np.ndarray, h: float, factor: np.ndarray, nonlinear) -> np.ndarray:
    """One Lawson (integrating-factor) Heun step of dy/dt = L y + N(y) on a
    spectrum y, where the diagonal `factor` = exp(h L) propagates the stiff
    linear part exactly and N goes through an explicit trapezoidal corrector."""
    n0 = nonlinear(y)
    n1 = nonlinear(factor * (y + h * n0))
    return factor * (y + 0.5 * h * n0) + 0.5 * h * n1
