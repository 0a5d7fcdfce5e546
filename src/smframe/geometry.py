"""Pointwise algebra of the two target surfaces.

The unit sphere S^2 sits in Euclidean R^3; the hyperbolic plane H^2 is the
upper hyperboloid -u0^2 + u1^2 + u2^2 = -1, u0 > 0 in Lorentz space
(R^3, eta), eta = diag(-1, 1, 1).  Every routine here is parameterized by
the curvature sign kappa (+1 sphere, -1 hyperbolic) and the metric
signature; both targets share one code path.

Vectors are numpy arrays whose last axis has length 3; all functions
broadcast over any leading (grid) axes and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRetraction, FrameInvalid

#: ambient constraint tolerance for "on manifold" checks
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class Target:
    """Target surface tag: curvature sign and ambient metric."""

    kind: str  # "sphere" or "hyperbolic"
    kappa: int = field(init=False)

    def __post_init__(self):
        if self.kind not in ("sphere", "hyperbolic"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        object.__setattr__(self, "kappa", 1 if self.kind == "sphere" else -1)

    @property
    def metric_diag(self) -> np.ndarray:
        if self.kind == "sphere":
            return np.array([1.0, 1.0, 1.0])
        return np.array([-1.0, 1.0, 1.0])

    @property
    def base_point(self) -> np.ndarray:
        """North pole (0,0,1) for the sphere, hyperboloid apex (1,0,0) for H^2."""
        if self.kind == "sphere":
            return np.array([0.0, 0.0, 1.0])
        return np.array([1.0, 0.0, 0.0])


SPHERE = Target("sphere")
HYPERBOLIC = Target("hyperbolic")


def target_from_name(name: str) -> Target:
    return Target(name.lower())


def inner(target: Target, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ambient pairing: Euclidean dot for S^2, Lorentz <v, eta w> for H^2, per component."""
    v, w = np.asarray(v), np.asarray(w)
    first = v[..., 0] * w[..., 0] if target.kind == "sphere" else -(v[..., 0] * w[..., 0])
    return first + v[..., 1] * w[..., 1] + v[..., 2] * w[..., 2]


def constraint_defect(target: Target, u: np.ndarray) -> np.ndarray:
    """<u,u> - kappa; zero exactly on the manifold."""
    return inner(target, u, u) - target.kappa


def check_on_manifold(target: Target, u: np.ndarray) -> None:
    defect = np.max(np.abs(constraint_defect(target, u)))
    if defect > CONSTRAINT_TOL:
        raise FrameInvalid(f"point off the {target.kind} by {defect:.3e} "
                           f"(tol {CONSTRAINT_TOL:.1e})")
    if target.kind == "hyperbolic" and np.min(np.asarray(u)[..., 0]) <= 0:
        raise FrameInvalid("hyperboloid point with u0 <= 0")


def j_apply(target: Target, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex structure J at u: u x v on S^2, eta (u x v) on H^2, written
    out per component (bit-identical to numpy's cross product), each of the
    3 result components contiguous in memory."""
    u, v = np.asarray(u), np.asarray(v)
    u0, u1, u2, v0, v1, v2 = u[..., 0], u[..., 1], u[..., 2], v[..., 0], v[..., 1], v[..., 2]
    # eta flips the time component
    first = u1 * v2 - u2 * v1 if target.kind == "sphere" else u2 * v1 - u1 * v2
    out = np.stack([first, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
    return out.transpose(*range(1, out.ndim), 0)


def project_tangent(target: Target, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove the normal component of w at u.

    The unit normal is u itself in both targets (<u,u> = kappa), so the
    projection is w - kappa <w,u> u.
    """
    coeff = target.kappa * inner(target, w, u)
    return w - coeff[..., np.newaxis] * u


def retract(target: Target, w: np.ndarray) -> np.ndarray:
    """Rescale w onto the manifold (ambient / Lorentz normalization)."""
    w = np.asarray(w, dtype=float)
    if target.kind == "sphere":
        norm = np.sqrt(np.sum(w * w, axis=-1))
        if np.min(norm) < 1e-8:
            raise DegenerateRetraction("near-zero vector cannot be normalized to S^2")
        return w / norm[..., np.newaxis]
    quad = -inner(target, w, w)  # = w0^2 - w1^2 - w2^2
    if np.min(quad) <= 0.0:
        raise DegenerateRetraction("vector outside the timelike cone of H^2")
    if np.min(w[..., 0]) <= 0.0:
        raise DegenerateRetraction("vector in the lower cone (w0 <= 0)")
    return w / np.sqrt(quad)[..., np.newaxis]


def orthonormalize_frame(target: Target, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Project e tangent at u and scale it to unit target-metric norm; used after
    every discrete transport."""
    v = project_tangent(target, u, e)
    norm2 = inner(target, v, v)
    if np.min(norm2) <= 0.0:
        raise FrameInvalid("tangent vector with nonpositive norm cannot be normalized")
    return v / np.sqrt(norm2)[..., np.newaxis]


def curvature_f(target: Target, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Curvature coefficient kappa <qa, i qb> with <z,w> = Re(z conj(w)),
    formed as kappa (Im qa Re qb - Re qa Im qb) without complex temporaries."""
    qa, qb = np.asarray(qa), np.asarray(qb)
    return target.kappa * (qa.imag * qb.real - qa.real * qb.imag)


def geodesic_distance(target: Target, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic distance on the target.

    Uses the half-angle chord forms d = 2 arcsin(|u - v| / 2) and
    d = 2 arcsinh(sqrt(<u - v, eta (u - v)>) / 2), which keep full relative
    accuracy for nearby points where arccos/arccosh lose half the digits.
    """
    diff = np.asarray(u) - np.asarray(v)
    chord2 = inner(target, diff, diff)
    if target.kind == "sphere":
        half = 0.5 * np.sqrt(np.clip(chord2, 0.0, None))
        return 2.0 * np.arcsin(np.clip(half, 0.0, 1.0))
    # the difference of two hyperboloid points is spacelike: chord2 >= 0
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.clip(chord2, 0.0, None)))
