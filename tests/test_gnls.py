import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.errors import CFLViolation, InvalidStep, SmframeError
from smframe.field import Grid, check_cfl, integrate, poisson_solve, spectral_derivative
from smframe.gnls import (GnlsState, connection_from_coordinates,
                          gnls_dissipation, gnls_mass, gnls_rhs,
                          gnls_seed_from_map, gnls_step, nls1d_energy, nls1d_mass, nls1d_step,
                          parabolic_gnls_step)
from smframe.gauge import (Connection, Coordinates, best_reference_frame,
                           compatibility_residual)

from reference import covariant_derivative


def test_check_cfl():
    g = Grid((64,), (2 * np.pi,))
    with pytest.raises(InvalidStep):
        check_cfl(g, 0.0)
    with pytest.warns(CFLViolation):
        check_cfl(g, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_cfl(g, 1e-5)


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
    q = presets.soliton(g, 2.0)
    m0 = nls1d_mass(g, q)
    e0 = nls1d_energy(g, q, 1)
    t = 0.0
    for _ in range(100):
        q = nls1d_step(g, q, 1e-3, 1)
        t += 1e-3
    exact = presets.soliton(g, 2.0) * np.exp(1j * t)
    # limited by the spatial truncation of the sech tail at N = 256
    assert np.max(np.abs(q - exact)) < 1e-8
    assert abs(nls1d_mass(g, q) - m0) < 1e-12 * m0
    assert abs(nls1d_energy(g, q, 1) - e0) < 1e-9


def test_nls1d_rejects_bad_step():
    g = Grid((64,), (2 * np.pi,))
    with pytest.raises(InvalidStep):
        nls1d_step(g, np.zeros(64, complex), -1e-3, 1)


def test_connection_is_zero_in_1d():
    g = Grid((64,), (2 * np.pi,))
    a = connection_from_coordinates(geo.SPHERE, g, (np.ones(64, complex),))
    assert np.max(np.abs(a[0])) == 0.0


def test_connection_solves_curl_equation_2d():
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    a = connection_from_coordinates(geo.SPHERE, g, st.q)
    f12 = geo.curvature_f(geo.SPHERE, st.q[0], st.q[1])
    curl = spectral_derivative(g, a[1], 0) - spectral_derivative(g, a[0], 1)
    assert np.max(np.abs(curl - f12)) < 1e-10
    div = spectral_derivative(g, a[0], 0) + spectral_derivative(g, a[1], 1)
    assert np.max(np.abs(div)) < 1e-12
    for ak in a:
        assert abs(np.mean(ak)) < 1e-14


def test_gnls_1d_matches_scalar_nls():
    # in the 1D zero-connection gauge the system must reduce to cubic NLS;
    # at n = 512 the 2/3 rule no longer cuts into the soliton's spectrum
    g = Grid((512,), (20 * np.pi,))
    q0 = presets.soliton(g, 2.0)
    state = GnlsState(grid=g, target=geo.SPHERE, time=0.0, q=(q0,))
    qs = q0.copy()
    dt = 1e-4
    for _ in range(50):
        state = gnls_step(state, dt)
        qs = nls1d_step(g, qs, dt, 1)
    assert np.max(np.abs(state.q[0] - qs)) < 1e-9


def test_gnls_conserves_mass_2d():
    g = Grid((64, 64), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    m0 = gnls_mass(st)
    for _ in range(20):
        st = gnls_step(st, 5e-5)
    assert abs(gnls_mass(st) - m0) < 1e-10 * m0
    assert st.time == pytest.approx(20 * 5e-5)


def _bump_state(n=32, length=8 * np.pi):
    g = Grid((n, n), (length, length))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    return gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]


def _step_census(st, fft_census, real_fft_census, monkeypatch):
    """(transforms, real transforms, Poisson solves) of one gnls_step."""
    solves = []
    solve = smframe.gnls.poisson_solve

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(smframe.gnls, "poisson_solve", counted)
    fft_census.clear()
    real_fft_census.clear()
    gnls_step(st, 5e-5)
    return dict(fft_census), dict(real_fft_census), len(solves)


def test_gnls_step_takes_real_transforms_of_the_real_fields(fft_census, real_fft_census,
                                                            monkeypatch):
    # per right-hand side: 2 forward complex n-D transforms of q_l and 4
    # inverse ones (d_k q_l), 3 real n-D pairs (f_12, f_l0 and the Poisson
    # solves on their spectra) and 2 complex n-D pairs (the dealias pass)
    census = _step_census(_bump_state(), fft_census, real_fft_census, monkeypatch)
    assert census == ({"fwd_nd": 28, "inv_nd": 36}, {"fwd_nd": 12, "inv_nd": 12}, 12)


def test_1d_gnls_step_takes_one_complex_transform_per_derivative(fft_census, real_fft_census,
                                                                 monkeypatch):
    # per right-hand side: a complex n-D pair for d_x q and one for the
    # dealias pass, and a real 1-D pair for a_0 (a_1 = 0 takes none)
    g = Grid((64,), (8 * np.pi,))
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                   q=(presets.random_bandlimited(g, 6, 0.3, 11),))
    census = _step_census(st, fft_census, real_fft_census, monkeypatch)
    assert census == ({"fwd_1d": 4, "inv_1d": 4, "fwd_nd": 8, "inv_nd": 8},
                      {"fwd_1d": 4, "inv_1d": 4}, 4)


def test_fields_are_derived_once_per_state():
    st = _bump_state()
    first = st.fields()
    assert all(a is b for a, b in zip(st.fields(), first))
    moved = replace(st, q=tuple(2.0 * qi for qi in st.q))
    assert "_fields" not in vars(moved)
    coords, conn = moved.fields()
    assert coords.q is moved.q
    assert not np.array_equal(conn.a0, first[1].a0)


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
    assert all(np.array_equal(a, b) for a, b in zip(given.q, plain.q))


def test_parabolic_energy_never_increases():
    g = Grid((64,), (8 * np.pi,))
    q = presets.random_bandlimited(g, 6, 0.3, 11)
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0, q=(q,))
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
    st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    for _ in range(20):
        st = parabolic_gnls_step(st, 2e-5, 0.1)
    a = connection_from_coordinates(geo.SPHERE, g, st.q)
    rep = compatibility_residual(geo.SPHERE, g, Coordinates(q=st.q), Connection(a=a))
    assert rep.dq_symmetry < 1e-6


def test_parabolic_step_dealiases_in_one_spectral_pass(fft_census):
    # per component and Heun stage the nonlinearity transforms q_l once
    # (two inverse for d_k q_l) and rhs_l once, with one inverse; each stage
    # adds 3 real pairs (f_12, f_l0, Poisson) and the Lawson factor one pair
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MeanHolonomy of the small box
        st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    fft_census.clear()
    parabolic_gnls_step(st, 2e-5, 0.1)
    assert fft_census == {"fwd_nd": 16, "inv_nd": 20}


def test_parabolic_step_validates_arguments():
    g = Grid((64,), (2 * np.pi,))
    st = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                   q=(np.zeros(64, complex),))
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, -1.0, 0.1)
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, 1e-4, 0.0)
    with pytest.raises(InvalidStep):
        parabolic_gnls_step(st, 1e-4, 2.0)


def test_seeding_from_map_is_compatible():
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    rep = compatibility_residual(geo.SPHERE, g, *st.fields())
    assert rep.max() < 1e-9
    # mass of the coordinates equals the map's Dirichlet energy (halved)
    energy = 0.0
    for k in range(2):
        du = spectral_derivative(g, u, k)
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
        a = [poisson_solve(grid, -spectral_derivative(grid, f12, 1)),
             poisson_solve(grid, spectral_derivative(grid, f12, 0))]
    q0 = mu * sum(covariant_derivative(grid, q[k], a[k], k) for k in dims)
    a0 = poisson_solve(grid, sum(spectral_derivative(grid, geo.curvature_f(target, q[l], q0), l)
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
    return np.stack(full, axis=-1), np.stack(less, axis=-1)


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
    q = tuple(presets.random_bandlimited(grid, n // 6, amplitude, seed + l) for l in range(dim))

    full, _ = _reference_rhs(target, grid, q, 1j)
    got = gnls_rhs(GnlsState(grid=grid, target=target, time=0.0, q=q))
    assert np.max(np.abs(got - full)) <= FUSED_RHS_TOL * np.max(np.abs(full))

    mu = (epsilon + 1j) / (1.0 + epsilon**2)
    full, less = _reference_rhs(target, grid, q, mu)
    seen = []
    with pytest.MonkeyPatch.context() as mp:  # capture the step's nonlinearity
        mp.setattr(smframe.gnls, "lawson_heun",
                   lambda grid, y, h, c, nonlinear: seen.append((c, nonlinear)) or y)
        parabolic_gnls_step(GnlsState(grid=grid, target=target, time=0.0, q=q), 1e-4, epsilon)
    (c, nonlinear), = seen
    assert c == mu
    got = nonlinear(np.stack(q, axis=-1))
    # relative to the full right-hand side: mu Delta q_l cancels out of it
    assert np.max(np.abs(got - less)) <= FUSED_RHS_TOL * np.max(np.abs(full))
