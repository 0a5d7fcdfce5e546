import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.direct import MapState, heisenberg_step, parabolic_sm_step
from smframe.errors import CFLViolation, InvalidStep, SmframeError
from smframe.field import Grid, check_cfl, integrate
from smframe.gnls import (GnlsState, _derive, connection_from_coordinates,
                          gnls_dissipation, gnls_mass, gnls_rhs,
                          gnls_seed_from_map, gnls_step, nls1d_energy, nls1d_step,
                          parabolic_gnls_step)
from smframe.gauge import (best_reference_frame, compatibility_residual, coulomb_fix,
                           extract_coordinates, remove_mean_connection)
from smframe.reconstruct import time_evolve_point

import reference
from reference import complex_derivative, complex_poisson, covariant_derivative


def test_check_cfl():
    g = Grid((64,), (2 * np.pi,))
    with pytest.raises(InvalidStep):
        check_cfl(g, 0.0)
    with pytest.warns(CFLViolation):
        check_cfl(g, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_cfl(g, 1e-5)


def _stepper_calls():
    """name -> one step, from a constant state, with the given dt (or epsilon)."""
    g = Grid((16,), (2 * np.pi,))
    q = np.zeros((1, 16), complex)
    u = np.broadcast_to(geo.HYPERBOLIC.base_point, (16, 3))
    e = np.broadcast_to([1.0, 0.0, 0.0], (16, 3))
    gs = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0, q=q)
    ms = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0, u=u)
    stages = [(q[0], q[0].real)] * 3
    return {
        "gnls_step": lambda h: gnls_step(gs, h),
        "heisenberg_step": lambda h: heisenberg_step(ms, h),
        "parabolic_sm_step": lambda h: parabolic_sm_step(ms, h, 0.1),
        "parabolic_sm_step-epsilon": lambda h: parabolic_sm_step(ms, 1e-4, h),
        "parabolic_gnls_step": lambda h: parabolic_gnls_step(gs, h, 0.1),
        "nls1d_step": lambda h: nls1d_step(g, q[0], h, 1),
        "time_evolve_point": lambda h: time_evolve_point(geo.HYPERBOLIC, u, e, stages, h),
    }


@pytest.mark.parametrize("stepper", list(_stepper_calls()))
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_steppers_reject_a_step_that_is_not_finite_and_positive(stepper, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no CFL warning before the rejection
        with pytest.raises(InvalidStep):
            _stepper_calls()[stepper](bad)


def test_nls1d_plane_wave_closed_form():
    # constant data has no dispersion: q(t) = c exp(i kappa c^2 t / 2)
    g = Grid((64,), (2 * np.pi,))
    for kappa in (1, -1):
        q = presets.plane_wave(g, 1.5)
        for _ in range(100):
            q = nls1d_step(g, q, 1e-3, kappa)
        expect = 1.5 * np.exp(1j * kappa * 1.5**2 * 0.1 / 2.0)
        assert np.max(np.abs(q - expect)) < 1e-12


def test_nls1d_soliton_and_mass_exactness():
    g = Grid((256,), (20 * np.pi,))

    def mass(q):
        return gnls_mass(GnlsState(grid=g, target=geo.SPHERE, time=0.0, q=q[np.newaxis]))

    q = presets.soliton(g, 2.0)
    m0 = mass(q)
    e0 = nls1d_energy(g, q, 1)
    t = 0.0
    for _ in range(100):
        q = nls1d_step(g, q, 1e-3, 1)
        t += 1e-3
    exact = presets.soliton(g, 2.0) * np.exp(1j * t)
    # limited by the spatial truncation of the sech tail at N = 256
    assert np.max(np.abs(q - exact)) < 1e-8
    assert abs(mass(q) - m0) < 1e-12 * m0
    assert abs(nls1d_energy(g, q, 1) - e0) < 1e-9


def test_nls1d_rejects_bad_step():
    g = Grid((64,), (2 * np.pi,))
    with pytest.raises(InvalidStep):
        nls1d_step(g, np.zeros(64, complex), -1e-3, 1)


def test_nls1d_step_rejects_a_2d_grid():
    # on 32^2 a step of the plane wave would be off its uniform phase by 1.9
    g = Grid((32, 32), (2 * np.pi, 2 * np.pi))
    with pytest.raises(ValueError, match="1D grid"):
        nls1d_step(g, presets.plane_wave(g, 1.5), 1e-3, 1)


def test_connection_is_zero_in_1d():
    g = Grid((64,), (2 * np.pi,))
    a = connection_from_coordinates(geo.SPHERE, g, np.ones((1, 64), complex))
    assert np.max(np.abs(a[0])) == 0.0


def test_connection_solves_curl_equation_2d():
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    a = connection_from_coordinates(geo.SPHERE, g, st.q)
    f12 = geo.curvature_f(geo.SPHERE, st.q[0], st.q[1])
    curl = complex_derivative(g, a[1], 0) - complex_derivative(g, a[0], 1)
    assert np.max(np.abs(curl - f12)) < 1e-10
    div = complex_derivative(g, a[0], 0) + complex_derivative(g, a[1], 1)
    assert np.max(np.abs(div)) < 1e-12
    for ak in a:
        assert abs(np.mean(ak)) < 1e-14


def test_gnls_1d_matches_scalar_nls():
    # in the 1D zero-connection gauge the system must reduce to cubic NLS;
    # at n = 512 the 2/3 rule no longer cuts into the soliton's spectrum
    g = Grid((512,), (20 * np.pi,))
    q0 = presets.soliton(g, 2.0)
    state = GnlsState(grid=g, target=geo.SPHERE, time=0.0, q=q0[np.newaxis])
    qs = q0.copy()
    dt = 1e-4
    for _ in range(50):
        state = gnls_step(state, dt)
        qs = nls1d_step(g, qs, dt, 1)
    assert np.max(np.abs(state.q[0] - qs)) < 1e-9


def test_gnls_conserves_mass_2d():
    g = Grid((64, 64), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    m0 = gnls_mass(st)
    for _ in range(20):
        st = gnls_step(st, 5e-5)
    assert abs(gnls_mass(st) - m0) < 1e-10 * m0
    assert st.time == pytest.approx(20 * 5e-5)


def _bump_state(n=32, length=8 * np.pi):
    g = Grid((n, n), (length, length))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    return gnls_seed_from_map(geo.SPHERE, g, u)[0]


def _step_census(st, fft_census, real_fft_census):
    """(transforms, real transforms) of one gnls_step; it makes no Poisson
    solve, its elliptic solves being products with Grid.half_poisson_ik."""
    fft_census.clear()
    real_fft_census.clear()
    gnls_step(st, 5e-5)
    return dict(fft_census), dict(real_fft_census)


def test_gnls_step_takes_real_transforms_of_the_real_fields(fft_census, real_fft_census):
    # per right-hand side: one forward complex n-D transform of the stacked
    # q and 4 inverse ones (d_k q_l), 2 forward ones of the rhs_l and one
    # inverse of the stacked spectra (the dealias pass), and 2 real n-D
    # pairs: f_12 in and both a_k out, the stacked f_l0 in and a_0 out
    census = _step_census(_bump_state(), fft_census, real_fft_census)
    assert census == ({"fwd_nd": 20, "inv_nd": 28}, {"fwd_nd": 8, "inv_nd": 8})


def test_1d_gnls_step_takes_one_complex_transform_per_derivative(fft_census, real_fft_census):
    # per right-hand side: a complex 1-D pair for d_x q and one for the
    # dealias pass, and a real 1-D pair for a_0 (a_1 = 0 takes none)
    g = Grid((64,), (8 * np.pi,))
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                   q=presets.random_bandlimited(g, 6, 0.3, 11)[np.newaxis])
    census = _step_census(st, fft_census, real_fft_census)
    assert census == ({"fwd_1d": 12, "inv_1d": 12}, {"fwd_1d": 4, "inv_1d": 4})


def test_fields_are_derived_once_per_state():
    st = _bump_state()
    first = st.fields()
    assert all(a is b for a, b in zip(st.fields(), first))
    moved = replace(st, q=2.0 * st.q)
    assert "_fields" not in vars(moved)
    q0, a, a0 = moved.fields()
    assert not np.array_equal(a0, first[2])


def _random_coordinates(grid, amplitude, seed):
    """(d, *grid.shape) complex coordinates band-limited to n / 6 per axis."""
    return np.array([presets.random_bandlimited(grid, grid.n[0] // 6, amplitude, seed + l)
                     for l in range(grid.dim)])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=["sphere", "hyperbolic"])
def test_coordinates_are_one_array_with_components_first(dim, target):
    # q and a are (d, *grid.shape) arrays from extraction through the steppers
    grid = Grid((16,) * dim, (4 * np.pi,) * dim)
    bump = np.stack([presets.random_bandlimited(grid, 2, 0.2, 5 + i).real for i in range(3)],
                    axis=-1)
    u = geo.retract(target, target.base_point + bump)
    shape = (dim,) + grid.shape
    stages = [extract_coordinates(target, grid, u, best_reference_frame(target, u))]
    stages.append(coulomb_fix(grid, *stages[-1])[:2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MeanHolonomy of the small box
        stages.append(remove_mean_connection(grid, *stages[-1])[:2])
    q = stages[-1][0]
    st = GnlsState(grid=grid, target=target, time=0.0, q=q)
    arrays = [x for pair in stages for x in pair] + [
        connection_from_coordinates(target, grid, q), gnls_rhs(st), gnls_step(st, 1e-4).q,
        parabolic_gnls_step(st, 1e-4, 0.5).q]
    assert [(type(x), x.shape) for x in arrays] == [(np.ndarray, shape)] * len(arrays)


@settings(max_examples=40, deadline=None)
@given(dim_n=hst.sampled_from([(1, 32), (1, 64), (2, 16), (2, 32)]),
       target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]),
       amplitude=hst.floats(0.1, 2.0), seed=hst.integers(0, 2**32 - 1))
def test_fields_only_pass_gives_the_full_pass_fields(dim_n, target, amplitude, seed):
    dim, n = dim_n
    grid = Grid((n,) * dim, (4 * np.pi,) * dim)
    q = _random_coordinates(grid, amplitude, seed)
    fields_only = _derive(target, grid, q, 1j, 1j, rhs=False)
    q0, a, a0 = GnlsState(grid=grid, target=target, time=0.0, q=q).fields()
    assert all(np.array_equal(x, y) for x, y in zip(fields_only, (q0, a, a0)))


def test_rhs_is_the_state_memo_and_read_only():
    st = _bump_state()
    rhs = gnls_rhs(st)
    assert gnls_rhs(st) is rhs
    with pytest.raises(ValueError):
        rhs[0, 0, 0] = 0.0


def test_gnls_step_with_given_k1_is_bit_identical():
    st = _bump_state()
    given = gnls_step(st, 5e-5, k1=gnls_rhs(st))
    plain = gnls_step(st, 5e-5)
    assert np.array_equal(given.q, plain.q)


def test_parabolic_energy_never_increases():
    g = Grid((64,), (8 * np.pi,))
    q = presets.random_bandlimited(g, 6, 0.3, 11)
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0, q=q[np.newaxis])
    masses = [gnls_mass(st)]
    for _ in range(50):
        st = parabolic_gnls_step(st, 1e-4, 0.1)
        masses.append(gnls_mass(st))
    assert all(b <= a for a, b in zip(masses, masses[1:]))
    assert gnls_dissipation(st) >= 0.0


def test_parabolic_step_keeps_2d_compatibility():
    # a_0 solves Delta a_0 = d_l kappa <q_l, i q_0> as in the Schroedinger
    # flow; a drifted a_0 equation raises dq_symmetry to ~1.5e-5 here
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    for _ in range(20):
        st = parabolic_gnls_step(st, 2e-5, 0.1)
    a = connection_from_coordinates(geo.SPHERE, g, st.q)
    _, sym, _ = compatibility_residual(geo.SPHERE, g, st.q, a)
    assert sym < 1e-6


def test_parabolic_step_dealiases_in_one_spectral_pass(fft_census):
    # the step transforms the stacked q in and out once; per Heun stage one
    # inverse transform of the stacked spectra and one forward of the stacked
    # q, 4 inverse for d_k q_l and one forward per rhs_l, plus 2 real pairs
    # (f_12 in and both a_k out, the stacked f_l0 in and a_0 out)
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MeanHolonomy of the small box
        st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    fft_census.clear()
    parabolic_gnls_step(st, 2e-5, 0.1)
    assert fft_census == {"fwd_nd": 11, "inv_nd": 15}


def test_parabolic_step_validates_arguments():
    g = Grid((64,), (2 * np.pi,))
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                   q=np.zeros((1, 64), complex))
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, -1.0, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, 1e-4, 0.0)
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, 1e-4, 2.0)


def test_seeding_from_map_is_compatible():
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    assert max(compatibility_residual(geo.SPHERE, g, st.q, st.fields()[1])) < 1e-9
    # mass of the coordinates equals the map's Dirichlet energy (halved)
    energy = 0.0
    for k in range(2):
        du = complex_derivative(g, u, k)
        energy += integrate(g, geo.inner(geo.SPHERE, du, du))
    assert abs(2.0 * gnls_mass(st) - energy) < 1e-10


def _reference_rhs(target, grid, q, mu):
    """dq_l/dt, each component masked by the 2/3 rule, and the same less
    mu Delta q_l (the parabolic nonlinearity), computed without the Coulomb
    identity: a, q_0 and a_0 from per-axis derivatives and Poisson solves of
    real fields, and D_k D_k q_l from covariant_derivative twice."""
    dims = range(grid.dim)
    a = [np.zeros(grid.shape)]
    if grid.dim == 2:
        f12 = geo.curvature_f(target, q[0], q[1])
        a = [complex_poisson(grid, -complex_derivative(grid, f12, 1)),
             complex_poisson(grid, complex_derivative(grid, f12, 0))]
    q0 = mu * sum(covariant_derivative(grid, q[k], a[k], k) for k in dims)
    a0 = complex_poisson(grid, sum(complex_derivative(grid, geo.curvature_f(target, q[l], q0), l)
                                 for l in dims))
    a0 -= a0[(0,) * grid.dim]
    full, less = [], []
    for l in dims:
        cov_lap = sum(covariant_derivative(grid, covariant_derivative(grid, q[l], a[k], k),
                                           a[k], k) for k in dims)
        rhs = -1j * a0 * q[l] + mu * (cov_lap + 1j * sum(geo.curvature_f(target, q[l], q[k]) * q[k]
                                                         for k in dims))
        rh, qh = np.fft.fftn(rhs), np.fft.fftn(q[l])
        full.append(np.fft.ifftn(grid.dealias_mask * rh))
        less.append(np.fft.ifftn(grid.dealias_mask * (rh + mu * grid.k_squared * qh)))
    return np.array(full), np.array(less)


#: max |fused - reference| / max |reference rhs| over 2,000 draws of the
#: property below was 1.7e-15 in 1D and 9.2e-16 in 2D
FUSED_RHS_TOL = 2e-14


@settings(max_examples=40, deadline=None)
@given(dim_n=hst.sampled_from([(1, 32), (1, 64), (2, 16), (2, 32)]),
       target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]),
       amplitude=hst.floats(0.1, 2.0), epsilon=hst.floats(0.01, 1.0),
       seed=hst.integers(0, 2**32 - 1))
def test_fused_rhs_matches_covariant_derivatives(dim_n, target, amplitude, epsilon, seed):
    # band limit n/6 per axis: a_k q_l (three factors of q) stays resolved,
    # so the spectral product rule, and with div a = 0 the identity
    # D_k D_k q = Delta q + 2i a_k d_k q - |a|^2 q, hold on the grid
    dim, n = dim_n
    grid = Grid((n,) * dim, (4 * np.pi,) * dim)
    q = _random_coordinates(grid, amplitude, seed)

    full, _ = _reference_rhs(target, grid, q, 1j)
    got = gnls_rhs(GnlsState(grid=grid, target=target, time=0.0, q=q))
    assert np.max(np.abs(got - full)) <= FUSED_RHS_TOL * np.max(np.abs(full))

    mu = (epsilon + 1j) / (1.0 + epsilon**2)
    full, less = _reference_rhs(target, grid, q, mu)
    seen = []
    with pytest.MonkeyPatch.context() as mp:  # capture the step's nonlinearity
        mp.setattr(smframe.gnls, "lawson_heun",
                   lambda y, h, factor, nonlinear: seen.append((factor, nonlinear)) or y)
        parabolic_gnls_step(GnlsState(grid=grid, target=target, time=0.0, q=q), 1e-4, epsilon)
    (factor, nonlinear), = seen
    assert np.array_equal(factor, np.exp(-mu * grid.k_squared * 1e-4))
    axes = tuple(range(1, dim + 1))
    got = np.fft.ifftn(nonlinear(np.fft.fftn(q, axes=axes)), axes=axes)
    # relative to the full right-hand side: mu Delta q_l cancels out of it
    assert np.max(np.abs(got - less)) <= FUSED_RHS_TOL * np.max(np.abs(full))


@settings(max_examples=30, deadline=None)
@given(dim_n=hst.sampled_from([(1, 32), (1, 64), (2, 16), (2, 32)]),
       target=hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]),
       amplitude=hst.floats(0.1, 2.0), dt=hst.floats(1e-5, 1e-3), epsilon=hst.floats(0.01, 1.0),
       seed=hst.integers(0, 2**32 - 1))
def test_parabolic_step_matches_the_grid_value_reference(dim_n, target, amplitude, dt, epsilon,
                                                          seed):
    # 1,000 draws by hand read at most 6.5e-16
    dim, n = dim_n
    grid = Grid((n,) * dim, (4 * np.pi,) * dim)
    st = GnlsState(grid=grid, target=target, time=0.0, q=_random_coordinates(grid, amplitude, seed))
    got, ref = parabolic_gnls_step(st, dt, epsilon), reference.parabolic_gnls_step(st, dt, epsilon)
    assert np.max(np.abs(got.q - ref.q)) <= 1e-13 * np.max(np.abs(ref.q))
    assert got.time == ref.time
