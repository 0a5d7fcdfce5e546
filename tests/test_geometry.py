import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import geometry as geo
from smframe.errors import DegenerateRetraction, FrameInvalid


def test_target_constants():
    assert geo.SPHERE.kappa == 1
    assert geo.HYPERBOLIC.kappa == -1
    assert np.allclose(geo.SPHERE.metric_diag, [1, 1, 1])
    assert np.allclose(geo.HYPERBOLIC.metric_diag, [-1, 1, 1])
    assert np.allclose(geo.SPHERE.base_point, [0, 0, 1])
    assert np.allclose(geo.HYPERBOLIC.base_point, [1, 0, 0])
    with pytest.raises(ValueError):
        geo.target_from_name("plane")


def test_inner_and_constraint():
    u = np.array([0.0, 0.0, 1.0])
    assert geo.inner(geo.SPHERE, u, u) == 1.0
    assert geo.constraint_defect(geo.SPHERE, u) == 0.0
    h = np.array([np.cosh(0.7), np.sinh(0.7), 0.0])
    assert abs(geo.inner(geo.HYPERBOLIC, h, h) + 1.0) < 1e-15
    assert abs(geo.constraint_defect(geo.HYPERBOLIC, h)) < 1e-15


def test_check_on_manifold_rejects_bad_points():
    with pytest.raises(FrameInvalid):
        geo.check_on_manifold(geo.SPHERE, np.array([0.0, 0.0, 1.1]))
    lower = np.array([-np.cosh(0.3), np.sinh(0.3), 0.0])
    with pytest.raises(FrameInvalid):
        geo.check_on_manifold(geo.HYPERBOLIC, lower)


@pytest.mark.parametrize("target,u", [
    (geo.SPHERE, np.array([0.0, 0.0, 1.0])),
    (geo.HYPERBOLIC, np.array([np.cosh(0.4), 0.3 * np.sinh(0.4) / 0.3, 0.0])),
])
def test_j_squares_to_minus_identity_on_tangents(target, u):
    u = geo.retract(target, u)
    rng = np.random.default_rng(0)
    v = geo.project_tangent(target, u, rng.standard_normal(3))
    jv = geo.j_apply(target, u, v)
    assert abs(geo.inner(target, jv, u)) < 1e-12  # J preserves tangency
    assert np.allclose(geo.j_apply(target, u, jv), -v, atol=1e-12)
    # J is an isometry of the tangent metric
    assert abs(geo.inner(target, jv, jv) - geo.inner(target, v, v)) < 1e-12


def test_project_tangent_is_idempotent_and_tangent():
    rng = np.random.default_rng(1)
    for target in (geo.SPHERE, geo.HYPERBOLIC):
        u = geo.retract(target, target.base_point + 0.1 * rng.standard_normal(3))
        w = rng.standard_normal((5, 3))
        p = geo.project_tangent(target, u, w)
        assert np.max(np.abs(geo.inner(target, p, u))) < 1e-12
        assert np.allclose(geo.project_tangent(target, u, p), p, atol=1e-12)


def test_retract_sphere():
    u = geo.retract(geo.SPHERE, np.array([[3.0, 0.0, 4.0]]))
    assert np.allclose(u, [[0.6, 0.0, 0.8]])
    with pytest.raises(DegenerateRetraction):
        geo.retract(geo.SPHERE, np.zeros(3))


def test_retract_hyperbolic():
    u = geo.retract(geo.HYPERBOLIC, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(u, [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateRetraction):
        geo.retract(geo.HYPERBOLIC, np.array([1.0, 2.0, 0.0]))  # spacelike
    with pytest.raises(DegenerateRetraction):
        geo.retract(geo.HYPERBOLIC, np.array([-2.0, 0.0, 0.0]))  # lower cone


def test_orthonormalize_frame():
    rng = np.random.default_rng(2)
    for target in (geo.SPHERE, geo.HYPERBOLIC):
        u = geo.retract(target, target.base_point + 0.2 * rng.standard_normal((4, 3)))
        e = geo.orthonormalize_frame(target, u, rng.standard_normal((4, 3)))
        assert np.max(np.abs(geo.inner(target, e, e) - 1.0)) < 1e-12
        assert np.max(np.abs(geo.inner(target, e, u))) < 1e-12


def test_curvature_coefficient_values_and_antisymmetry():
    qa = np.array(1.0 + 0.0j)
    qb = np.array(0.0 + 1.0j)
    # <qa, i qb> = Re(qa * conj(i qb)) = Re(conj(-1)) = -1 on the sphere
    assert geo.curvature_f(geo.SPHERE, qa, qb) == -1.0
    assert geo.curvature_f(geo.HYPERBOLIC, qa, qb) == 1.0
    rng = np.random.default_rng(3)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.allclose(geo.curvature_f(geo.SPHERE, z, w),
                       -geo.curvature_f(geo.SPHERE, w, z))
    assert np.allclose(geo.curvature_f(geo.SPHERE, z, z), 0.0)


@settings(max_examples=60, deadline=None)
@given(target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]), seed=hst.integers(0, 2**32 - 1),
       n=hst.integers(1, 64), scale=hst.floats(1e-8, 1e8))
def test_curvature_coefficient_real_form(target, seed, n, scale):
    # kappa (Im qa Re qb - Re qa Im qb) rounds two products and their
    # difference; numpy's complex product may fuse them (FMA), so the complex
    # form Re(qa conj(i qb)) agrees to within the rounding of the products.
    # The real form is exactly antisymmetric and f(z, z) is exactly 0, which
    # is what lets the GNLS right-hand side skip f_ll q_l.
    rng = np.random.default_rng(seed)
    z, w = scale * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    got = geo.curvature_f(target, z, w)
    products = np.abs(z.imag * w.real) + np.abs(z.real * w.imag)
    complex_form = target.kappa * np.real(z * np.conj(1j * w))
    assert np.all(np.abs(got - complex_form) <= 2 * np.finfo(float).eps * products)
    assert np.array_equal(geo.curvature_f(target, w, z), -got)
    assert np.array_equal(geo.curvature_f(target, z, z), np.zeros(n))


def test_geodesic_distance_closed_forms():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert abs(geo.geodesic_distance(geo.SPHERE, a, b) - np.pi / 2) < 1e-14
    assert abs(geo.geodesic_distance(geo.SPHERE, a, -a) - np.pi) < 1e-7
    t = 0.83
    h = np.array([np.cosh(t), np.sinh(t), 0.0])
    o = geo.HYPERBOLIC.base_point
    assert abs(geo.geodesic_distance(geo.HYPERBOLIC, o, h) - t) < 1e-13


def test_geodesic_distance_accurate_for_nearby_points():
    a = np.array([1.0, 0.0, 0.0])
    eps = 1e-11
    b = geo.retract(geo.SPHERE, np.array([1.0, eps, 0.0]))
    d = geo.geodesic_distance(geo.SPHERE, a, b)
    assert abs(d - eps) < 1e-15 + 1e-6 * eps


EPS = np.finfo(float).eps
_targets = hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC])
_seeds = hst.integers(0, 2**32 - 1)


def _points(target, rng, shape, spread):
    """Random points of the target: normalized Gaussians on S^2, lifted
    planar Gaussians (u0 = sqrt(1 + |x|^2)) on H^2."""
    if target.kind == "sphere":
        return geo.retract(target, rng.standard_normal(shape + (3,)))
    x = spread * rng.standard_normal(shape + (2,))
    return np.concatenate([np.sqrt(1.0 + np.sum(x * x, axis=-1, keepdims=True)), x], axis=-1)


@settings(max_examples=80, deadline=None)
@given(target=_targets, seed=_seeds, shapes=hst.sampled_from([
    ((3,), (3,)), ((7, 3), (7, 3)), ((3,), (4, 3)), ((4, 1, 3), (1, 5, 3)),
    ((6, 3), (2, 6, 3)), ((4, 5, 3), (2, 4, 5, 3))]))
def test_j_apply_is_eta_cross_on_broadcast_shapes(target, seed, shapes):
    # the last pair is u of shape (..., 3) against a (d, ..., 3) gradient
    rng = np.random.default_rng(seed)
    u, v = (rng.standard_normal(shape) for shape in shapes)
    got = geo.j_apply(target, u, v)
    expect = target.metric_diag * np.cross(u, v)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(u)) * np.max(np.abs(v))


@settings(max_examples=80, deadline=None)
@given(target=_targets, seed=_seeds, spread=hst.floats(0.0, 3.0))
def test_j_squares_to_minus_one_on_random_tangents(target, seed, spread):
    rng = np.random.default_rng(seed)
    u = _points(target, rng, (16,), spread)
    v = geo.project_tangent(target, u, rng.standard_normal((16, 3)))
    jjv = geo.j_apply(target, u, geo.j_apply(target, u, v))
    scale = np.max(np.abs(u), axis=-1, keepdims=True) ** 2 * np.max(np.abs(v))
    assert np.all(np.abs(jjv + v) <= 1e-13 * scale)


@settings(max_examples=80, deadline=None)
@given(target=_targets, seed=_seeds, spread=hst.floats(0.0, 3.0),
       scale=hst.floats(0.1, 10.0))
def test_retract_is_idempotent(target, seed, spread, scale):
    rng = np.random.default_rng(seed)
    u = geo.retract(target, scale * _points(target, rng, (16,), spread))
    # the Lorentz norm cancels |u|^2 down to 1, so round-off scales with |u|^2
    cond = np.max(np.sum(u * u, axis=-1))
    assert np.max(np.abs(geo.constraint_defect(target, u))) <= 8 * EPS * cond
    again = geo.retract(target, u)
    assert np.max(np.abs(again - u)) <= 8 * EPS * cond * np.max(np.abs(u))


@settings(max_examples=80, deadline=None)
@given(target=_targets, seed=_seeds, spread=hst.floats(0.0, 3.0))
def test_geodesic_distance_is_symmetric(target, seed, spread):
    rng = np.random.default_rng(seed)
    u, v = (_points(target, rng, (16,), spread) for _ in range(2))
    d = geo.geodesic_distance(target, u, v)
    assert np.all(d >= 0.0)
    assert np.array_equal(d, geo.geodesic_distance(target, v, u))
