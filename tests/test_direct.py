import numpy as np
import pytest

from smframe import geometry as geo
from smframe import presets
from smframe.direct import (MapState, flux_divergence, heisenberg_step,
                            hyperbolic_sm_step, map_moment,
                            parabolic_sm_step)
from smframe.errors import CFLViolation, InvalidStep
from smframe.field import Grid


def _constant_state(target, grid):
    u = np.broadcast_to(target.base_point, grid.shape + (3,)).copy()
    return MapState(grid=grid, target=target, time=0.0, u=u)


def test_constant_maps_are_fixed_points():
    g = Grid((32,), (2 * np.pi,))
    for target, step in ((geo.SPHERE, heisenberg_step),
                         (geo.HYPERBOLIC, hyperbolic_sm_step)):
        st = _constant_state(target, g)
        st2 = step(st, 1e-4)
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
        heisenberg_step(_constant_state(geo.HYPERBOLIC, g), 1e-4)
    with pytest.raises(ValueError):
        hyperbolic_sm_step(_constant_state(geo.SPHERE, g), 1e-4)
    with pytest.raises(ValueError):
        parabolic_sm_step(_constant_state(geo.SPHERE, g), 1e-4, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_sm_step(_constant_state(geo.HYPERBOLIC, g), -1.0, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_sm_step(_constant_state(geo.HYPERBOLIC, g), 1e-4, 0.0)


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
        st = hyperbolic_sm_step(st, 1e-4)
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


def test_parabolic_step_takes_six_real_transform_pairs(fft_census):
    # per Lawson stage one gradient and one divergence, plus the linear
    # factor twice; per-axis complex derivatives took 12 + 12 1-D and
    # 2 + 2 n-D transforms
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    st = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                  u=presets.gaussian_bump_chi(g, 0.5, 0.8))
    fft_census.clear()
    parabolic_sm_step(st, 1e-4, 0.1)
    assert fft_census == {"fwd_nd": 6, "inv_nd": 6}


@pytest.mark.parametrize("target,step", [
    (geo.SPHERE, heisenberg_step), (geo.HYPERBOLIC, hyperbolic_sm_step),
    (geo.HYPERBOLIC, lambda st, dt: parabolic_sm_step(st, dt, 0.1))])
def test_steppers_keep_components_contiguous(target, step):
    g = Grid((32, 16), (4 * np.pi, 4 * np.pi))
    u = (presets.sphere_bump_2d(g, 0.5, 1.0) if target.kind == "sphere"
         else presets.gaussian_bump_chi(g, 0.5, 0.8))
    st = step(MapState(grid=g, target=target, time=0.0, u=u), 1e-4)
    assert st.u.shape == g.shape + (3,)
    assert all(st.u[..., c].flags.c_contiguous for c in range(3))
