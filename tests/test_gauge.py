import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import gauge
from smframe import geometry as geo
from smframe import presets
from smframe.errors import FrameInvalid, MeanHolonomy
from smframe.field import Grid, spectral_derivative
from smframe.gauge import (Connection, Coordinates, best_reference_frame,
                           compatibility_residual, coulomb_fix,
                           exponential_gauge_connection,
                           exponential_gauge_curl_residual,
                           extract_coordinates, gauge_transform, remove_mean_connection,
                           rotate_frame, validate_frame)

from reference import covariant_derivative


def _great_circle_setup(n=64, boxes=4):
    g = Grid((n,), (2 * np.pi * boxes,))
    u = presets.great_circle(g, turns=boxes)
    e = geo.orthonormalize_frame(geo.SPHERE, u, np.broadcast_to([0.0, 0.0, 1.0], u.shape))
    return g, u, e


def _bump_setup(n=64):
    # width 1.4 keeps both the spectral tail and the torus seam below 1e-13
    # at n = 64 points over 8 pi
    g = Grid((n, n), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    e = best_reference_frame(geo.SPHERE, u)
    return g, u, e


def test_validate_frame_accepts_and_rejects():
    g, u, e = _great_circle_setup()
    validate_frame(geo.SPHERE, u, e)
    with pytest.raises(FrameInvalid):
        validate_frame(geo.SPHERE, u, 1.1 * e)
    with pytest.raises(FrameInvalid):
        validate_frame(geo.SPHERE, u, np.roll(u, 1, axis=-1) * 0 + u)


def test_extract_coordinates_great_circle_closed_form():
    # u = (cos x, sin x, 0), e = z-hat: d_x u = -Je so q = -i, a = 0
    g, u, e = _great_circle_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    assert np.max(np.abs(coords.q[0] + 1j)) < 1e-12
    assert np.max(np.abs(conn.a[0])) < 1e-12


def test_extraction_is_isometric():
    g, u, e = _bump_setup()
    coords, _ = extract_coordinates(geo.SPHERE, g, u, e)
    for axis in range(2):
        du = spectral_derivative(g, u, axis)
        assert np.max(np.abs(np.abs(coords.q[axis]) ** 2
                             - geo.inner(geo.SPHERE, du, du))) < 1e-12


def test_rotate_frame_matches_gauge_transform():
    g, u, e = _great_circle_setup()
    theta = 0.3 * np.sin(g.axis_coord(0) / 4.0)
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    e2 = rotate_frame(geo.SPHERE, u, e, theta)
    coords2, conn2 = extract_coordinates(geo.SPHERE, g, u, e2)
    qhat, ahat = gauge_transform(g, coords, conn, theta)
    assert np.max(np.abs(coords2.q[0] - qhat.q[0])) < 1e-10
    assert np.max(np.abs(conn2.a[0] - ahat.a[0])) < 1e-10


def test_gauge_transform_group_law_and_modulus():
    g, u, e = _great_circle_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    x = g.axis_coord(0)
    th1, th2 = 0.2 * np.sin(x / 4.0), -0.7 * np.cos(x / 2.0)
    one = gauge_transform(g, *gauge_transform(g, coords, conn, th1), th2)
    both = gauge_transform(g, coords, conn, th1 + th2)
    assert np.max(np.abs(one[0].q[0] - both[0].q[0])) < 1e-12
    assert np.max(np.abs(one[1].a[0] - both[1].a[0])) < 1e-12
    assert np.max(np.abs(np.abs(one[0].q[0]) - np.abs(coords.q[0]))) < 1e-12
    # inverse transform restores the input
    back = gauge_transform(g, *both, -(th1 + th2))
    assert np.max(np.abs(back[0].q[0] - coords.q[0])) < 1e-12


@hst.composite
def _bandlimited_gauge_data(draw):
    """A grid, band-limited (q, a) on it and two band-limited real angles."""
    dim = draw(hst.sampled_from([1, 2]))
    g = Grid((32,) * dim, (draw(hst.floats(2.0, 40.0)),) * dim)

    def field(amplitude):
        return presets.random_bandlimited(
            g, kmax=draw(hst.integers(1, 8)), amplitude=amplitude,
            seed=draw(hst.integers(0, 2**32 - 1)))

    coords = Coordinates(q=tuple(field(1.0) for _ in range(dim)))
    conn = Connection(a=tuple(field(1.0).real for _ in range(dim)))
    amplitudes = hst.floats(0.0, 5.0)
    th1, th2 = field(draw(amplitudes)).real, field(draw(amplitudes)).real
    return g, coords, conn, th1, th2


@settings(max_examples=50, deadline=None)
@given(data=_bandlimited_gauge_data())
def test_gauge_group_law_on_bandlimited_angles(data):
    g, coords, conn, th1, th2 = data
    one = gauge_transform(g, *gauge_transform(g, coords, conn, th1), th2)
    both = gauge_transform(g, coords, conn, th1 + th2)
    for ql, qb in zip(one[0].q, both[0].q):
        assert np.max(np.abs(ql - qb)) < 1e-13
    for al, ab in zip(one[1].a, both[1].a):
        assert np.max(np.abs(al - ab)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(data=_bandlimited_gauge_data())
def test_coulomb_fix_is_idempotent_on_bandlimited_data(data):
    g, coords, conn, _, _ = data
    q1, a1, _ = coulomb_fix(g, coords, conn)
    q2, a2, theta = coulomb_fix(g, q1, a1)
    assert np.max(np.abs(theta)) < 1e-12
    for qa, qb in zip(q1.q, q2.q):
        assert np.max(np.abs(qa - qb)) < 1e-12
    for aa, ab in zip(a1.a, a2.a):
        assert np.max(np.abs(aa - ab)) < 1e-12


def test_covariant_derivative_transforms_covariantly():
    # D_k q_l - D_l q_k picks up the phase exp(-i theta), and curl a and
    # f_12 are unchanged, so both residuals are gauge invariant for any a;
    # a doubled connection keeps them away from zero (1.2e-2 and 3.6e-2)
    g, u, e = _bump_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    conn = Connection(a=tuple(2.0 * ak for ak in conn.a))
    x1, _ = g.coords()
    theta = 0.4 * np.sin(x1 / 4.0)
    rep = compatibility_residual(geo.SPHERE, g, coords, conn)
    hat = compatibility_residual(geo.SPHERE, g, *gauge_transform(g, coords, conn, theta))
    # measured 2.1e-9, the pseudospectral aliasing of the phase product at
    # n = 64; D with -i a_k instead moves the dq-symmetry term by 3.4e-2
    assert abs(hat.dq_symmetry - rep.dq_symmetry) < 1e-8
    assert abs(hat.curl_minus_curvature - rep.curl_minus_curvature) < 1e-14


def test_coulomb_fix_divergence_free_and_idempotent():
    g, u, e = _bump_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    q1, a1, th1 = coulomb_fix(g, coords, conn)
    div = sum(spectral_derivative(g, ak, axis) for axis, ak in enumerate(a1.a))
    # floor set by the Nyquist content of the seeded data
    assert np.max(np.abs(div)) < 1e-8
    q2, a2, th2 = coulomb_fix(g, q1, a1)
    assert np.max(np.abs(th2)) < 1e-9
    assert np.max(np.abs(q2.q[0] - q1.q[0])) < 1e-9
    assert np.max(np.abs(np.abs(q1.q[0]) - np.abs(coords.q[0]))) < 1e-13


def test_remove_mean_connection():
    g, u, e = _bump_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    coords, conn, _ = coulomb_fix(g, coords, conn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeanHolonomy)
        q2, a2, theta = remove_mean_connection(g, coords, conn)
    for ak in a2.a:
        assert abs(np.mean(ak)) < 1e-15
    assert np.max(np.abs(np.abs(q2.q[0]) - np.abs(coords.q[0]))) < 1e-13
    # the returned angle is the ramp that was applied
    assert np.max(np.abs(q2.q[0] - np.exp(-1j * theta) * coords.q[0])) < 1e-13


def test_parallel_gauge_zeroes_connection_and_warns_on_holonomy():
    g, u, e = _great_circle_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    # inject a connection with a mean by rotating the frame with a ramp-free part
    theta = 0.5 * np.sin(g.axis_coord(0) / 4.0)
    coords, conn = gauge_transform(g, coords, conn, theta)
    # in 1D the parallel gauge is the Coulomb gauge with its mean removed
    qc, ac, theta = coulomb_fix(g, coords, conn)
    qp, ap, ramp = remove_mean_connection(g, qc, ac)
    theta = theta + ramp
    assert np.max(np.abs(ap.a[0])) < 1e-14
    assert np.max(np.abs(np.abs(qp.q[0]) - np.abs(coords.q[0]))) < 1e-12
    assert np.max(np.abs(qp.q[0] - np.exp(-1j * theta) * coords.q[0])) < 1e-12

    biased = Connection(a=(conn.a[0] + 0.3,))
    qb, ab, _ = coulomb_fix(g, coords, biased)
    with pytest.warns(MeanHolonomy):
        remove_mean_connection(g, qb, ab)


def test_extract_coordinates_takes_two_real_transform_pairs(fft_census):
    # one gradient of u and one of e serve every axis; per-axis complex
    # derivatives took 4 + 4 1-D transforms
    g, u, e = _bump_setup(32)
    fft_census.clear()
    extract_coordinates(geo.SPHERE, g, u, e)
    assert fft_census == {"fwd_nd": 2, "inv_nd": 2}


def test_compatibility_residual_takes_one_real_transform_pair(fft_census):
    # div a is the trace of the gradient that serves the curl; the two
    # 1-D pairs are the covariant derivatives of the dq-symmetry term
    g, u, e = _bump_setup(32)
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    fft_census.clear()
    compatibility_residual(geo.SPHERE, g, coords, conn)
    assert fft_census == {"fwd_1d": 2, "inv_1d": 2, "fwd_nd": 1, "inv_nd": 1}


def _per_axis_coordinates(target, g, u, e):
    """(q, a) from one complex spectral_derivative per axis and field."""
    je = geo.j_apply(target, u, e)
    q, a = [], []
    for axis in range(g.dim):
        du = spectral_derivative(g, u, axis)
        q.append(geo.inner(target, du, e) + 1j * geo.inner(target, du, je))
        de = geo.project_tangent(target, u, spectral_derivative(g, e, axis))
        a.append(geo.inner(target, de, je))
    return q, a


def _per_axis_residual(target, g, q, a):
    """compatibility_residual's three numbers from per-axis derivatives."""
    div = sum(spectral_derivative(g, ak, axis) for axis, ak in enumerate(a))
    sym = curl = 0.0
    for l in range(g.dim):
        for k in range(l + 1, g.dim):
            sym = np.max(np.abs(covariant_derivative(g, q[l], a[k], k)
                                - covariant_derivative(g, q[k], a[l], l)))
            curl = np.max(np.abs(spectral_derivative(g, a[k], l)
                                 - spectral_derivative(g, a[l], k)
                                 - geo.curvature_f(target, q[l], q[k])))
    return np.max(np.abs(div)), sym, curl


@settings(max_examples=50, deadline=None)
@given(dim=hst.sampled_from([1, 2]), target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]),
       length=hst.floats(4.0, 40.0), kmax=hst.integers(1, 8),
       amplitude=hst.floats(0.0, 0.3), seed=hst.integers(0, 2**32 - 1))
def test_real_kernels_match_per_axis_derivatives_on_random_frames(
        dim, target, length, kmax, amplitude, seed):
    g = Grid((32,) * dim, (length,) * dim)
    bump = np.stack([presets.random_bandlimited(g, kmax, amplitude, seed + i).real
                     for i in range(3)], axis=-1)
    u = geo.retract(target, target.base_point + bump)
    e = best_reference_frame(target, u)
    coords, conn = extract_coordinates(target, g, u, e)
    q, a = _per_axis_coordinates(target, g, u, e)
    for got, want in zip(coords.q + conn.a, q + a):
        assert np.max(np.abs(got - want)) < 1e-12
    # a doubled connection keeps every residual away from zero
    doubled = [2.0 * ak for ak in a]
    rep = compatibility_residual(target, g, coords, Connection(a=tuple(doubled)))
    want = _per_axis_residual(target, g, q, doubled)
    assert np.max(np.abs(np.subtract(rep.as_tuple(), want))) < 1e-12


def test_compatibility_residual_small_for_extracted_data():
    g, u, e = _bump_setup()
    coords, conn = extract_coordinates(geo.SPHERE, g, u, e)
    coords, conn, _ = coulomb_fix(g, coords, conn)
    coords, conn, _ = remove_mean_connection(g, coords, conn)
    rep = compatibility_residual(geo.SPHERE, g, coords, conn)
    assert rep.max() < 1e-6
    assert rep.as_tuple() == (rep.div_a, rep.dq_symmetry, rep.curl_minus_curvature)
    # breaking the pair breaks the report
    broken = Coordinates(q=(coords.q[0], 2.0 * coords.q[1]))
    rep2 = compatibility_residual(geo.SPHERE, g, broken, conn)
    assert rep2.dq_symmetry > 1e-3


def _bump_curvature(n):
    g, u, e = _bump_setup(n)
    coords, _ = extract_coordinates(geo.SPHERE, g, u, e)
    return g, geo.curvature_f(geo.SPHERE, coords.q[0], coords.q[1])


def _cosine_ray_integral(theta):
    """int_0^1 s cos(s theta) ds = (cos theta + theta sin theta - 1) / theta^2."""
    small = np.abs(theta) < 1e-3
    t = np.where(small, 1.0, theta)
    return np.where(small, 0.5 - theta**2 / 8 + theta**4 / 144,
                    (np.cos(t) + t * np.sin(t) - 1.0) / t**2)


def test_exponential_gauge_radial_identity_and_curl():
    g, f12 = _bump_curvature(64)
    conn = exponential_gauge_connection(g, f12)
    x1, x2 = g.coords()
    assert np.max(np.abs(x1 * conn.a[0] + x2 * conn.a[1])) < 1e-12
    assert exponential_gauge_curl_residual(g, conn, f12) < 5e-3
    # on one Fourier mode cos(k.x), k = m / 4 on the 8 pi box, the ray
    # integral has a closed form; (16, 0) at 32 points is the Nyquist mode
    for n, m in ((64, (3, 2)), (64, (10, -7)), (32, (16, 0))):
        g = Grid((n, n), (8 * np.pi, 8 * np.pi))
        x1, x2 = g.coords()
        theta = (m[0] * x1 + m[1] * x2) / 4
        conn = exponential_gauge_connection(g, np.cos(theta))
        radial = _cosine_ray_integral(theta)
        assert np.max(np.abs(conn.a[0] + x2 * radial)) < 1e-12
        assert np.max(np.abs(conn.a[1] - x1 * radial)) < 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_exponential_gauge_converges_in_ray_nodes(monkeypatch, n):
    g, f12 = _bump_curvature(n)
    conn = exponential_gauge_connection(g, f12)
    quadrature = gauge._ray_quadrature
    monkeypatch.setattr(gauge, "_ray_quadrature", lambda m: quadrature(2 * m))
    doubled = exponential_gauge_connection(g, f12)
    for ak, bk in zip(conn.a, doubled.a):
        assert np.max(np.abs(ak - bk)) < 1e-13


def test_best_reference_frame_picks_nondegenerate_axis():
    g, u, _ = _great_circle_setup()
    e = best_reference_frame(geo.SPHERE, u)
    validate_frame(geo.SPHERE, u, e)
    # the equatorial circle only admits the z-axis reference
    assert np.max(np.abs(e - np.array([0.0, 0.0, 1.0]))) < 1e-12
