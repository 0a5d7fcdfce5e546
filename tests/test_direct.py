import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import geometry as geo
from smframe import presets
from smframe.direct import (MapState, flux_divergence, heisenberg_step, map_moment,
                            parabolic_sm_step)
from smframe.errors import CFLViolation, DegenerateRetraction, InvalidStep
from smframe.field import Grid

import reference
from reference import complex_derivative


def _constant_state(target, grid):
    u = np.broadcast_to(target.base_point, grid.shape + (3,)).copy()
    return MapState(grid=grid, target=target, time=0.0, u=u)


def test_constant_maps_are_fixed_points():
    g = Grid((32,), (2 * np.pi,))
    for target in (geo.SPHERE, geo.HYPERBOLIC):
        st = _constant_state(target, g)
        st2 = heisenberg_step(st, 1e-4)
        assert np.max(np.abs(st2.u - st.u)) < 1e-14
        assert st2.time == pytest.approx(1e-4)
    st = _constant_state(geo.HYPERBOLIC, g)
    st2 = parabolic_sm_step(st, 1e-4, 0.2)
    assert np.max(np.abs(st2.u - st.u)) < 1e-13


def test_great_circle_is_stationary():
    g = Grid((64,), (4 * np.pi,))
    st = MapState(grid=g, target=geo.SPHERE, time=0.0, u=presets.great_circle(g))
    assert np.max(np.abs(flux_divergence(geo.SPHERE, g, st.u))) < 1e-11
    for _ in range(100):
        st = heisenberg_step(st, 1e-4)
    assert np.max(geo.geodesic_distance(geo.SPHERE, st.u, presets.great_circle(g))) < 1e-10


def test_target_kind_is_enforced():
    g = Grid((32,), (2 * np.pi,))
    with pytest.raises(ValueError):
        parabolic_sm_step(_constant_state(geo.SPHERE, g), 1e-4, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_sm_step(_constant_state(geo.HYPERBOLIC, g), -1.0, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_sm_step(_constant_state(geo.HYPERBOLIC, g), 1e-4, 0.0)


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=lambda t: t.kind)
def test_failed_retraction_is_redone_as_two_half_steps(target, monkeypatch):
    g = Grid((32, 16), (4 * np.pi, 4 * np.pi))
    u = (presets.sphere_bump_2d(g, 0.5, 1.0) if target.kind == "sphere"
         else presets.gaussian_bump_chi(g, 0.5, 0.8))
    st = MapState(grid=g, target=target, time=0.25, u=u)
    halves = heisenberg_step(heisenberg_step(st, 5e-5), 5e-5)
    retract, calls = geo.retract, []

    def fail_first(tg, w):
        calls.append(tg)
        if len(calls) == 1:
            raise DegenerateRetraction("injected")
        return retract(tg, w)

    monkeypatch.setattr(geo, "retract", fail_first)
    st2 = heisenberg_step(st, 1e-4)
    assert len(calls) == 3
    assert np.array_equal(st2.u, halves.u)
    assert st2.time == st.time + 1e-4

    def fail(tg, w):
        raise DegenerateRetraction("injected")

    monkeypatch.setattr(geo, "retract", fail)
    with pytest.raises(DegenerateRetraction):
        heisenberg_step(st, 1e-4)


def test_cfl_warning_on_coarse_step():
    g = Grid((64,), (2 * np.pi,))
    st = _constant_state(geo.SPHERE, g)
    with pytest.warns(CFLViolation):
        heisenberg_step(st, 0.1)


def test_heisenberg_preserves_constraint_and_moment():
    g = Grid((128,), (16 * np.pi,))
    u0 = presets.perturbed_great_circle(g, 0.05, 4, 7)
    st = MapState(grid=g, target=geo.SPHERE, time=0.0, u=u0)
    mom0 = map_moment(st)
    for _ in range(200):
        st = heisenberg_step(st, 1e-4)
    assert st.constraint_max() < 1e-12
    assert np.max(np.abs(map_moment(st) - mom0)) < 1e-10
    # the flow is genuinely moving
    assert np.max(np.abs(st.u - u0)) > 1e-6


def test_hyperbolic_flow_preserves_constraint_and_moment():
    g = Grid((64, 64), (4 * np.pi, 4 * np.pi))
    u0 = presets.gaussian_bump_chi(g, 0.5, 0.8)
    st = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0, u=u0)
    mom0 = map_moment(st)
    for _ in range(50):
        st = heisenberg_step(st, 1e-4)
    assert st.constraint_max() < 1e-12
    assert np.max(np.abs(map_moment(st) - mom0)) < 1e-10
    assert np.min(st.u[..., 0]) >= 1.0


def test_parabolic_flow_decays_moment_monotonically():
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    st = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                  u=presets.gaussian_bump_chi(g, 0.5, 0.8))
    moments = [map_moment(st)[0]]
    for _ in range(30):
        st = parabolic_sm_step(st, 1e-4, 0.1)
        moments.append(map_moment(st)[0])
    assert all(b <= a for a, b in zip(moments, moments[1:]))
    assert st.constraint_max() < 1e-12


def test_map_moment_conventions():
    g = Grid((32,), (2.0,))
    st = _constant_state(geo.SPHERE, g)
    assert np.allclose(map_moment(st), [0.0, 0.0, 2.0])
    st = _constant_state(geo.HYPERBOLIC, g)
    assert np.allclose(map_moment(st), [0.0, 0.0, 0.0])


def test_parabolic_step_takes_five_forward_and_three_inverse_real_transforms(fft_census):
    # u in and out once, and per Lawson stage one inverse transform of
    # (v, d_k v) and two forward ones, of the fluxes and of density * v
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    st = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                  u=presets.gaussian_bump_chi(g, 0.5, 0.8))
    fft_census.clear()
    parabolic_sm_step(st, 1e-4, 0.1)
    assert fft_census == {"fwd_nd": 5, "inv_nd": 3}


def test_heisenberg_step_takes_five_real_transform_pairs(fft_census, real_fft_census):
    # u in and out once, and per RK4 stage one inverse transform of (v, d_x v)
    # and one forward transform of the flux; on grid values a stage took two pairs
    g = Grid((64,), (4 * np.pi,))
    st = MapState(grid=g, target=geo.SPHERE, time=0.0, u=presets.perturbed_great_circle(g))
    fft_census.clear()
    real_fft_census.clear()
    heisenberg_step(st, 1e-4)
    assert fft_census == real_fft_census == {"fwd_1d": 5, "inv_1d": 5}


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=lambda t: t.kind)
@pytest.mark.parametrize("n", [(128,), (32, 32)], ids=["1d", "2d"])
def test_heisenberg_step_matches_the_grid_value_reference(target, n):
    g = Grid(n, (4 * np.pi,) * len(n))
    if target.kind == "sphere":
        u = presets.perturbed_great_circle(g) if len(n) == 1 else presets.sphere_bump_2d(g)
    else:
        u = presets.gaussian_bump_chi(g, 0.5, 0.8)
    st = ref = MapState(grid=g, target=target, time=0.0, u=u)
    for _ in range(20):
        st, ref = heisenberg_step(st, 1e-4), reference.heisenberg_step(ref, 1e-4)
    assert np.max(np.abs(st.u - ref.u)) <= 1e-13 * np.max(np.abs(ref.u))
    assert st.time == ref.time


@pytest.mark.parametrize("target,step", [
    (geo.SPHERE, heisenberg_step), (geo.HYPERBOLIC, heisenberg_step),
    (geo.HYPERBOLIC, lambda st, dt: parabolic_sm_step(st, dt, 0.1))])
def test_steppers_keep_components_contiguous(target, step):
    g = Grid((32, 16), (4 * np.pi, 4 * np.pi))
    u = (presets.sphere_bump_2d(g, 0.5, 1.0) if target.kind == "sphere"
         else presets.gaussian_bump_chi(g, 0.5, 0.8))
    st = step(MapState(grid=g, target=target, time=0.0, u=u), 1e-4)
    assert st.u.shape == g.shape + (3,)
    assert all(st.u[..., c].flags.c_contiguous for c in range(3))


def _random_map(target, grid, kmax, amplitude, seed):
    bump = np.stack([presets.random_bandlimited(grid, kmax, amplitude, seed + i).real
                     for i in range(3)], axis=-1)
    return geo.retract(target, target.base_point + bump)


_maps = dict(target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]),
             n=hst.sampled_from([(32,), (64,), (16, 16), (32, 16)]),
             length=hst.floats(4.0, 40.0), kmax=hst.integers(1, 8),
             amplitude=hst.floats(0.0, 0.5), seed=hst.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(**_maps)
def test_flux_divergence_matches_per_axis_derivatives(target, n, length, kmax, amplitude,
                                                       seed):
    g = Grid(n, (length,) * len(n))
    u = _random_map(target, g, kmax, amplitude, seed)
    expect = sum(complex_derivative(g, geo.j_apply(target, u, complex_derivative(g, u, k)), k)
                 for k in range(g.dim))
    got = flux_divergence(target, g, u)
    assert got.shape == expect.shape
    # round-off in u, differentiated twice, is of size eps |u|^2 k_nyquist^2;
    # 3,000 draws read at most 1.4e-16 of that scale
    scale = np.max(np.abs(u)) ** 2 * max(np.pi / h for h in g.spacing) ** 2
    assert np.max(np.abs(got - expect)) <= 2e-15 * scale


@settings(max_examples=30, deadline=None)
@given(**{**_maps, "target": hst.just(geo.HYPERBOLIC)},
       dt=hst.floats(1e-5, 1e-3), epsilon=hst.floats(0.01, 1.0))
def test_parabolic_step_matches_the_grid_value_reference(target, n, length, kmax, amplitude,
                                                          seed, dt, epsilon):
    g = Grid(n, (length,) * len(n))
    st = MapState(grid=g, target=target, time=0.0, u=_random_map(target, g, kmax, amplitude, seed))
    got, ref = parabolic_sm_step(st, dt, epsilon), reference.parabolic_sm_step(st, dt, epsilon)
    assert np.max(np.abs(got.u - ref.u)) <= 1e-13 * np.max(np.abs(ref.u))
    assert got.time == ref.time
