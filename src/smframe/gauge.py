"""Frames, connections, and gauge fixing.

A frame along a map u is a unit tangent field e; the second leg is always
Je.  Writing a tangent section as v = Re(z) e + Im(z) Je packs it into one
complex scalar z per point.  The frame coordinates of the map are

    q_l = <d_l u, e> + i <d_l u, Je>        (target metric)
    a_l = <D_l e, Je>

so that d_l u = q_l . e and D_l e = a_l Je.  Rotating the frame by an angle
field theta, e -> cos(theta) e + sin(theta) Je, transforms

    q -> exp(-i theta) q,       a -> a + grad theta,

which is the U(1) transformation law implemented by `gauge_transform` (the
two sides are tied together: this is the unique pairing under which the
covariant derivative D_l = d_l + i a_l transforms covariantly).  Every stage
passes q and a as plain arrays of shape (d, *grid.shape), components first.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import geometry as geo
from .errors import FrameInvalid, MeanHolonomy
from .field import Grid, _irfft, _rfft, gradient, spectral_derivative


def validate_frame(target: geo.Target, u: np.ndarray, e: np.ndarray) -> None:
    """Check the pointwise frame invariants: unit norm and tangency."""
    geo.check_on_manifold(target, u)
    norm_defect = np.max(np.abs(geo.inner(target, e, e) - 1.0))
    tangency_defect = np.max(np.abs(geo.inner(target, e, u)))
    if norm_defect > geo.CONSTRAINT_TOL or tangency_defect > geo.CONSTRAINT_TOL:
        raise FrameInvalid(
            f"frame defects: |<e,e>-1| = {norm_defect:.3e}, |<e,u>| = {tangency_defect:.3e}"
        )


def best_reference_frame(target: geo.Target, u: np.ndarray) -> np.ndarray:
    """Frame from the ambient basis vector whose projection is best
    conditioned across the whole grid (largest worst-case tangent norm)."""
    best, best_score = None, -np.inf
    for i in range(3):
        ref = np.zeros(3)
        ref[i] = 1.0
        p = geo.project_tangent(target, u, np.broadcast_to(ref, u.shape))
        score = float(np.min(geo.inner(target, p, p)))
        if score > best_score:
            best, best_score = ref, score
    if best_score <= geo.CONSTRAINT_TOL:
        raise FrameInvalid(
            "no constant reference vector yields a frame on this map")
    return geo.orthonormalize_frame(target, u, np.broadcast_to(best, u.shape))


def rotate_frame(target: geo.Target, u: np.ndarray, e: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """Rotate the frame by theta in the (e, Je) plane."""
    th = np.asarray(theta)[..., np.newaxis]
    return np.cos(th) * e + np.sin(th) * geo.j_apply(target, u, e)


def extract_coordinates(target: geo.Target, grid: Grid, u: np.ndarray,
                        e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward construction: read (q, a) off a map and its frame.

    Spatial components only; a_0 and q_0 belong to the evolution solvers.
    """
    validate_frame(target, u, e)
    je = geo.j_apply(target, u, e)
    du = gradient(grid, u)  # d_l u on the leading axis
    de = geo.project_tangent(target, u, gradient(grid, e))
    q = geo.inner(target, du, e) + 1j * geo.inner(target, du, je)
    return q, geo.inner(target, de, je)


def gauge_transform(grid: Grid, q: np.ndarray, a: np.ndarray,
                    theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the U(1) gauge change of a frame rotation by theta."""
    return np.exp(-1j * theta) * q, a + gradient(grid, theta)


def coulomb_fix(grid: Grid, q: np.ndarray,
                a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge-fix to the Coulomb gauge div a = 0 via theta = -Delta^-1 d_k a_k.

    In 1D this leaves a_1 constant; `remove_mean_connection` then zeroes
    it, which is the parallel gauge.
    """
    ah = _rfft(grid, a)
    theta = -_irfft(grid, sum(p * ak for p, ak in zip(grid.half_poisson_ik, ah)))
    return (*gauge_transform(grid, q, a, theta), theta)


def remove_mean_connection(grid: Grid, q: np.ndarray,
                           a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge away the constant (harmonic) part of the spatial connection.

    On the torus the Coulomb condition fixes a only up to constants; this
    applies the linear ramp theta = -sum_k mean(a_k) x_k pointwise so the
    result matches the decay normalization mean(a) = 0.  The ramp is not
    periodic; its holonomy is reported as a MeanHolonomy warning when it
    exceeds round-off scale.  Returns the ramp angle as the third value.
    """
    means = [float(np.mean(ak)) for ak in a]
    theta = np.zeros(grid.shape)
    for axis, m in enumerate(means):
        holonomy = m * grid.length[axis]
        if abs(holonomy) > 2.0 * np.pi * 1e-8:
            warnings.warn(
                f"mean connection on axis {axis} gives torus holonomy "
                f"{holonomy:.3e}; the mean-zero gauge is not periodic",
                MeanHolonomy)
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        theta = theta - m * grid.axis_coord(axis).reshape(shape)
    return np.exp(-1j * theta) * q, a - np.reshape(means, (-1,) + (1,) * grid.dim), theta


def exponential_gauge_connection(grid: Grid, f12: np.ndarray) -> np.ndarray:
    """Radial-transport (exponential) gauge from the curvature two-form.

    Reconstructs a_k(x) = int_0^1 x^l F_lk(s x) s ds about the box center,
    so x^1 a_1 + x^2 a_2 = 0 pointwise.  f12(s x) is the trigonometric
    interpolant of the samples, E_1(s) F E_2(s)^T with F their spectrum and
    E_a(s)[j, m] = exp(i k_m (s x_j + L_a/2)) (the Nyquist column its cosine
    representative), and the ray integral is Gauss-Legendre in s, so for
    band-limited f12 it is exact up to quadrature.  s x never leaves the
    box, so the torus seam does not enter; only the curl check
    (`exponential_gauge_curl_residual`) stays interior, because a decays
    like 1/|x| and is not periodic.
    """
    if grid.dim != 2:
        raise ValueError("exponential gauge reconstruction needs d = 2")
    fh = np.fft.fft2(f12, norm="forward")

    def modes(axis, s):
        y = s * grid.axis_coord(axis) + grid.length[axis] / 2
        e = np.exp(1j * np.multiply.outer(y, grid.wavenumber(axis)))
        nyquist = grid.n[axis] // 2
        e[:, nyquist] = e[:, nyquist].real
        return e

    radial = np.zeros(grid.shape)  # int_0^1 f12(s x) s ds
    for s, w in zip(*_ray_quadrature(max(grid.n) + 32)):
        radial += w * s * (modes(0, s) @ fh @ modes(1, s).T).real
    x1, x2 = grid.coords()
    return np.array([-x2 * radial, x1 * radial])


def _ray_quadrature(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [0, 1]."""
    s, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (s + 1.0), 0.5 * w


def exponential_gauge_curl_residual(grid: Grid, a: np.ndarray, f12: np.ndarray) -> float:
    """max |curl a - f12| over the central half of the box (per axis).

    The radial-transport connection decays only like 1/|x| and is not
    periodic, so its curl is formed with local fourth-order centered
    differences and checked away from the torus seam.
    """
    def fd(f, axis):
        h = grid.spacing[axis]
        return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
                - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)

    curl = fd(a[1], 0) - fd(a[0], 1)
    x1, x2 = grid.coords()
    half1, half2 = 0.25 * grid.length[0], 0.25 * grid.length[1]
    interior = (np.abs(x1) < half1) & (np.abs(x2) < half2)
    return float(np.max(np.abs((curl - f12)[interior])))


def compatibility_residual(target: geo.Target, grid: Grid, q: np.ndarray,
                           a: np.ndarray) -> tuple[float, float, float]:
    """Measure how far (q, a) is from being realizable as frame coordinates:
    the max-norm residuals (div a, D_k q_l - D_l q_k, curl a - f), in that order."""
    da = gradient(grid, np.moveaxis(a, 0, -1))  # da[l, ..., k] = d_l a_k
    r1 = float(np.max(np.abs(np.trace(da, axis1=0, axis2=-1))))  # div a
    r2 = r3 = 0.0
    for l in range(grid.dim):
        for k in range(l + 1, grid.dim):
            # D_k q_l - D_l q_k with D_k q_l = d_k q_l + i a_k q_l
            sym = (spectral_derivative(grid, q[l], k) + 1j * a[k] * q[l]) \
                - (spectral_derivative(grid, q[k], l) + 1j * a[l] * q[k])
            r2 = max(r2, float(np.max(np.abs(sym))))
            curl = da[l, ..., k] - da[k, ..., l]
            r3 = max(r3, float(np.max(np.abs(curl - geo.curvature_f(target, q[l], q[k])))))
    return r1, r2, r3
