import warnings
from dataclasses import replace

import numpy as np
import pytest

import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.errors import CFLViolation, InvalidStep, SmframeError
from smframe.field import Grid, check_cfl, integrate, spectral_derivative
from smframe.gnls import (GnlsState, connection_from_coordinates,
                          gnls_dissipation, gnls_mass, gnls_rhs,
                          gnls_seed_from_map, gnls_step, nls1d_energy, nls1d_mass, nls1d_step,
                          parabolic_gnls_step)
from smframe.gauge import (Connection, Coordinates, best_reference_frame,
                           compatibility_residual)


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
    a = st.connection()
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


def test_gnls_step_takes_real_transforms_of_the_real_fields(fft_census, real_fft_census,
                                                            monkeypatch):
    # per right-hand side: 4 real 1-D pairs (d f_12 and d f_l0), 10 complex
    # 1-D pairs (covariant derivatives of q), 3 real n-D pairs (Poisson
    # solves) and 2 complex n-D pairs (dealias)
    st = _bump_state()
    solves = []
    solve = smframe.gnls.poisson_solve

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(smframe.gnls, "poisson_solve", counted)
    fft_census.clear()
    real_fft_census.clear()
    gnls_step(st, 5e-5)
    assert fft_census == {"fwd_1d": 56, "inv_1d": 56, "fwd_nd": 20, "inv_nd": 20}
    assert real_fft_census == {"fwd_1d": 16, "inv_1d": 16, "fwd_nd": 12, "inv_nd": 12}
    assert len(solves) == 12


def test_fields_are_derived_once_per_state():
    st = _bump_state()
    first = st.fields()
    assert all(a is b for a, b in zip(st.fields(), first))
    moved = replace(st, q=tuple(2.0 * qi for qi in st.q))
    assert "_fields" not in vars(moved)
    coords, conn = moved.fields()
    assert coords.q is moved.q
    assert not np.array_equal(conn.a0, first[1].a0)


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
    rep = compatibility_residual(geo.SPHERE, g, Coordinates(q=st.q),
                                 Connection(a=st.connection()))
    assert rep.dq_symmetry < 1e-6


def test_parabolic_step_dealiases_in_one_spectral_pass(fft_census):
    # per component and Heun stage the nonlinearity transforms rhs_l and
    # q_l and takes one inverse; a separate Laplacian pass took 16 inverse
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # MeanHolonomy of the small box
        st = gnls_seed_from_map(geo.SPHERE, g, u, best_reference_frame(geo.SPHERE, u))[0]
    fft_census.clear()
    parabolic_gnls_step(st, 2e-5, 0.1)
    assert fft_census == {"fwd_1d": 28, "inv_1d": 28, "fwd_nd": 16, "inv_nd": 12}


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
