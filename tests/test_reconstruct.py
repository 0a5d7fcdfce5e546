import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.linalg import expm

import smframe.gnls
from smframe import geometry as geo
from smframe import presets
from smframe.errors import CFLViolation, InvalidStep, MeanHolonomy
from smframe.field import CFL_CONSTANT, Grid
from smframe.gauge import (best_reference_frame, coulomb_fix, extract_coordinates,
                           remove_mean_connection, rotate_frame)
from smframe.gnls import GnlsState, gnls_seed_from_map, gnls_step
from smframe.reconstruct import (SWEEP_SUBSTEPS, _gnls_stages, _line_samples,
                                 _magnus_generator, _propagator, initial_data_sweep,
                                 reconstruct_trajectory, sm_residual,
                                 time_evolve_point)

NORTH, EAST = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])


def test_base_point_validation():
    g = Grid((16,), (2 * np.pi,))

    def sweep(m, v0):
        return initial_data_sweep(geo.SPHERE, g, np.zeros((1, 16), complex), np.zeros((1, 16)),
                                  np.array(m), np.array(v0))

    sweep([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    with pytest.raises(Exception):
        sweep([0.0, 0.0, 1.5], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        sweep([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sweep([0.0, 0.0, 1.0], [2.0, 0.0, 0.0])


def test_zero_data_gives_constant_map():
    g = Grid((64,), (2 * np.pi,))
    st = initial_data_sweep(geo.SPHERE, g, np.zeros((1, 64), complex), np.zeros((1, 64)),
                            NORTH, EAST)
    assert np.max(np.abs(st.u - NORTH)) < 1e-14
    assert np.max(np.abs(st.e - EAST)) < 1e-14
    assert st.periodicity_defect < 1e-14


def test_sweep_recovers_great_circle():
    g = Grid((512,), (16 * np.pi,))
    u = presets.great_circle(g, turns=8)
    e = geo.orthonormalize_frame(geo.SPHERE, u, np.broadcast_to([0.0, 0.0, 1.0], u.shape))
    q, a = extract_coordinates(geo.SPHERE, g, u, e)
    c = g.center_index[0]
    st = initial_data_sweep(geo.SPHERE, g, q, a, u[c], e[c])
    # (q, a) is constant along a great circle, where the Magnus step is exact
    assert np.max(geo.geodesic_distance(geo.SPHERE, st.u, u)) < 1e-11
    assert np.max(np.abs(st.e - e)) < 1e-11
    assert st.periodicity_defect < 1e-11


def _hyperbolic_roundtrip_error(n):
    g = Grid((n,), (8 * np.pi,))
    x = g.axis_coord(0)
    chi = 0.6 * np.exp(-0.5 * (x / 1.2) ** 2)
    u = np.stack([np.cosh(chi), np.sinh(chi) * np.cos(x / 4.0),
                  np.sinh(chi) * np.sin(x / 4.0)], axis=-1)
    u = geo.retract(geo.HYPERBOLIC, u)
    e = best_reference_frame(geo.HYPERBOLIC, u)
    q, a = extract_coordinates(geo.HYPERBOLIC, g, u, e)
    c = g.center_index[0]
    st = initial_data_sweep(geo.HYPERBOLIC, g, q, a, u[c], e[c])
    return np.max(geo.geodesic_distance(geo.HYPERBOLIC, st.u, u))


def test_sweep_converges_at_fourth_order():
    err_c = _hyperbolic_roundtrip_error(128)
    err_f = _hyperbolic_roundtrip_error(256)
    order = np.log2(err_c / err_f)
    assert err_f < err_c
    assert 3.5 < order < 4.5


def test_sweep_recovers_2d_map_and_frame():
    g = Grid((64, 64), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    e = best_reference_frame(geo.SPHERE, u)
    q, a = extract_coordinates(geo.SPHERE, g, u, e)
    q, a, theta = coulomb_fix(g, q, a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeanHolonomy)
        q, a, ramp = remove_mean_connection(g, q, a)
    e = rotate_frame(geo.SPHERE, u, e, theta + ramp)
    c = g.center_index
    st = initial_data_sweep(geo.SPHERE, g, q, a, u[c], e[c])
    assert np.max(geo.geodesic_distance(geo.SPHERE, st.u, u)) < 1e-6
    # the mean-removal ramp is not periodic, so the frame mismatch piles up
    # at the wrap seam; the interior recovery is clean and the seam error is
    # exactly what periodicity_defect reports
    sl = (slice(16, 48), slice(16, 48))
    assert np.max(np.abs(st.e[sl] - e[sl])) < 1e-6
    assert st.periodicity_defect < 0.05


def _graph_map(target, g, amplitude, kmax, seed):
    """The graph u = v + sqrt(1 - kappa |v|^2) p, on the target exactly, of a
    band-limited field v tangent at the base point p; a narrow envelope keeps
    the map constant near the seam, so the seam adds no holonomy."""
    envelope = amplitude * np.exp(-0.5 * sum(x**2 for x in g.coords()))
    v = np.zeros(g.shape + (3,))
    for i, c in enumerate(np.flatnonzero(target.base_point == 0)):
        v[..., c] = envelope * presets.random_bandlimited(g, kmax, 1.0, seed + i).real
    return v + np.sqrt(1.0 - target.kappa * np.sum(v * v, axis=-1))[..., np.newaxis] \
        * target.base_point


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC], ids=["sphere", "hyperbolic"])
@pytest.mark.parametrize("n, bound", [((128,), 1e-6), ((64, 64), 2e-4)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(amplitude=hst.floats(0.0, 0.5), kmax=hst.integers(1, 4),
       seed=hst.integers(0, 2**32 - 2))
def test_one_slice_gives_back_a_random_map_and_its_frame(target, n, bound, amplitude,
                                                         kmax, seed):
    # (q, a) read off a random map, gauge-fixed and swept back: u returns on
    # the whole box, e on its central half (the mean-zero ramp is not
    # periodic).  Worst of 2,000 (1-D) and 250 (2-D) draws at amplitude 0.5:
    # 9.7e-8 and 3.1e-5 (S^2); a first-order sweep (Simpson weight of q's
    # midpoint 2, not 4) gives more than 5e-2.
    g = Grid(n, (8 * np.pi,) * len(n))
    u = _graph_map(target, g, amplitude, kmax, seed)
    e = best_reference_frame(target, u)
    q, a = extract_coordinates(target, g, u, e)
    q, a, theta = coulomb_fix(g, q, a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeanHolonomy)
        q, a, ramp = remove_mean_connection(g, q, a)
    e = rotate_frame(target, u, e, theta + ramp)
    c = g.center_index
    st = initial_data_sweep(target, g, q, a, u[c], e[c])
    interior = tuple(slice(m // 4, 3 * m // 4) for m in g.n)
    assert np.max(geo.geodesic_distance(target, st.u, u)) < bound
    assert np.max(np.abs(st.e[interior] - e[interior])) < bound


def test_line_samples_are_exact_on_bandlimited_data():
    g = Grid((64,), (2 * np.pi,))
    x = g.axis_coord(0)
    h = g.spacing[0]

    def f(s):  # cos(32 s) is the Nyquist mode, sampled by its cosine
        return np.sin(5 * s) + 0.3 * np.cos(2 * s) + 0.2 * np.cos(32 * s)

    for scale in (1.0, 1.0 - 0.5j):
        tables = _line_samples(g, scale * f(x), 0, SWEEP_SUBSTEPS)
        assert tables.shape == (2 * SWEEP_SUBSTEPS + 1, 64)
        for t, row in enumerate(tables):
            expect = scale * f(x + t * h / (2 * SWEEP_SUBSTEPS))
            assert np.max(np.abs(row - expect)) < 1e-12
        # row 0 is the identity and row 2m a plain circular roll
        assert np.max(np.abs(tables[0] - scale * f(x))) < 1e-12
        assert np.max(np.abs(tables[-1] - np.roll(scale * f(x), -1))) < 1e-12


def test_center_row_samples_match_full_grid_tables():
    g = Grid((64, 32), (8 * np.pi, 4 * np.pi))
    row = Grid(g.n[:1], g.length[:1])
    c = g.center_index[1]
    q = presets.random_bandlimited(g, kmax=6, amplitude=0.5, seed=3)
    for f in (q, q.real):
        full = _line_samples(g, f, 0, SWEEP_SUBSTEPS)[:, c, :]
        assert np.array_equal(_line_samples(row, f[:, c], 0, SWEEP_SUBSTEPS), full)


def _generator(kappa, w):
    w1, w2, w3 = w
    return np.array([[0.0, -kappa * w1, -kappa * w2],
                     [w1, 0.0, -w3],
                     [w2, w3, 0.0]])


# c = -(kappa (w1^2 + w2^2) + w3^2) sets the branch of the exponential:
# rotations (c < 0), boosts (c > 0, H^2 only), and the Taylor series for
# |c| < 1e-2, probed on both sides of that cut-off
@settings(max_examples=200, deadline=None)
@given(kappa=hst.sampled_from([1, -1]),
       w=hst.tuples(*[hst.floats(-1.0, 1.0)] * 3),
       scale=hst.floats(1e-4, 1.0))
@example(kappa=1, w=(0.1, 0.0, 0.0), scale=0.999)
@example(kappa=1, w=(0.1, 0.0, 0.0), scale=1.001)
@example(kappa=1, w=(0.6, -0.5, 0.7), scale=1.0)
@example(kappa=-1, w=(0.1, 0.0, 0.0), scale=0.999)
@example(kappa=-1, w=(0.1, 0.0, 0.0), scale=1.001)
@example(kappa=-1, w=(0.6, 0.5, 0.1), scale=1.0)
@example(kappa=-1, w=(0.0, 0.0, 0.1), scale=0.999)
@example(kappa=-1, w=(0.0, 0.0, 0.1), scale=1.001)
@example(kappa=-1, w=(0.1, 0.0, 0.9), scale=1.0)
def test_magnus_propagator_stays_on_the_frame_group(kappa, w, scale):
    w = scale * np.asarray(w)
    m = _propagator(kappa, np.array([w[0] + 1j * w[1]]), np.array([w[2]]))[0]
    g = np.diag([kappa, 1.0, 1.0])  # the frame's Gram matrix <F_i, F_j>
    assert np.max(np.abs(m.T @ g @ m - g)) < 1e-13
    assert np.max(np.abs(m - expm(_generator(kappa, w)))) < 1e-13


@pytest.mark.parametrize("target", [geo.SPHERE, geo.HYPERBOLIC])
def test_magnus_step_is_time_reversible(target):
    rng = np.random.default_rng(7)
    k = target.kappa
    q = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    a = rng.standard_normal((3, 16))
    samples = list(zip(q, a))  # (q, a) at a step's start, midpoint and end
    fwd = _propagator(k, *_magnus_generator(k, 0.3, *samples))
    bwd = _propagator(k, *_magnus_generator(k, -0.3, *samples[::-1]))
    u = geo.retract(target, target.base_point + 0.3 * rng.standard_normal((16, 3)))
    e = geo.orthonormalize_frame(target, u, rng.standard_normal((16, 3)))
    frame = np.stack([u, e, geo.j_apply(target, u, e)], axis=-1)
    assert np.max(np.abs(frame @ fwd @ bwd - frame)) < 1e-14


def test_time_evolve_point_plane_wave_precession():
    # constant q = c in the parallel gauge: q_t = 0, a_t = -c^2/2, so the
    # frame precesses about u at rate c^2/2 while u stays fixed
    c = 1.0
    u = np.array([[0.0, 0.0, 1.0]])
    e = np.array([[1.0, 0.0, 0.0]])
    q0 = np.zeros(1, complex)
    a0 = np.full(1, -0.5 * c**2)
    stages = [(q0, a0)] * 3
    n_steps = 6283
    dt = 4 * np.pi / n_steps  # one full revolution at rate 1/2
    en = e.copy()
    for _ in range(n_steps):
        u2, en = time_evolve_point(geo.SPHERE, u, en, stages, dt)
        assert np.max(np.abs(u2 - u)) < 1e-12
    assert np.max(np.abs(en - e)) < 1e-8


def test_time_evolve_point_rejects_bad_step():
    u = np.array([[0.0, 0.0, 1.0]])
    e = np.array([[1.0, 0.0, 0.0]])
    stages = [(np.zeros(1, complex), np.zeros(1))] * 3
    with pytest.raises(InvalidStep):
        time_evolve_point(geo.SPHERE, u, e, stages, 0.0)


def _soliton_state(g):
    return GnlsState(grid=g, target=geo.SPHERE, time=0.0, q=presets.soliton(g, 2.0)[np.newaxis])


def _soliton_run(g, m, v0, n_steps, dt):
    return list(reconstruct_trajectory(_soliton_state(g), dt, m, v0, n_steps))


def _frame_gap(run_a, run_b):
    """max over (t, x) of |u - u~| + |e - e~| + |Je - Je~|: the whole
    orthonormal triple, the quantity the uniqueness argument controls."""
    gap = 0.0
    for sa, sb in zip(run_a, run_b, strict=True):
        fa = geo.j_apply(geo.SPHERE, sa.u, sa.e)
        fb = geo.j_apply(geo.SPHERE, sb.u, sb.e)
        total = (np.linalg.norm(sa.u - sb.u, axis=-1) + np.linalg.norm(sa.e - sb.e, axis=-1)
                 + np.linalg.norm(fa - fb, axis=-1))
        gap = max(gap, float(np.max(total)))
    return gap


def test_reconstruction_is_deterministic_and_stable_in_base():
    g = Grid((128,), (10 * np.pi,))
    run_a = _soliton_run(g, NORTH, EAST, 10, 1e-3)
    run_b = _soliton_run(g, NORTH, EAST, 10, 1e-3)
    assert _frame_gap(run_a, run_b) == 0.0

    delta = 1e-6
    m2 = geo.retract(geo.SPHERE, NORTH + np.array([delta, 0.0, 0.0]))
    v2 = geo.orthonormalize_frame(geo.SPHERE, m2, EAST)
    run_c = _soliton_run(g, m2, v2, 10, 1e-3)
    gap = _frame_gap(run_a, run_c)
    assert 0.0 < gap < 50 * delta


def test_two_reconstructions_from_one_start_are_identical():
    # the start state is not advanced by a run, so a second run from the
    # same object begins at t = 0 again
    start = _soliton_gnls()
    run_a = list(reconstruct_trajectory(start, 1e-3, NORTH, EAST, 5))
    run_b = list(reconstruct_trajectory(start, 1e-3, NORTH, EAST, 5))
    assert start.time == 0.0
    for sa, sb in zip(run_a, run_b, strict=True):
        assert sa.time == sb.time
        assert np.array_equal(sa.u, sb.u) and np.array_equal(sa.e, sb.e)


def test_reconstructed_trajectory_satisfies_map_equation():
    # every state carries the q_0 of its gauge-side slice, and du/dt =
    # Re(q_0) e + Im(q_0) Je meets the flux divergence of u there (1.3e-4 at
    # this resolution); a q_0 of the wrong sign or conjugated reads 2.0
    g = Grid((256,), (10 * np.pi,))
    states = _soliton_run(g, NORTH, EAST, 4, 5e-4)
    assert states[0].time == 0.0
    assert states[-1].time == pytest.approx(4 * 5e-4)
    gauge_side = _soliton_state(g)
    for st in states:
        assert np.array_equal(st.q0, gauge_side.fields()[0])
        assert sm_residual(geo.SPHERE, g, st) < 5e-4
        for wrong in (-st.q0, st.q0.conj()):
            assert sm_residual(geo.SPHERE, g, replace(st, q0=wrong)) > 1.0
        gauge_side = gnls_step(gauge_side, 5e-4)


def test_snapshot_every_thins_output():
    g = Grid((64,), (10 * np.pi,))
    states = list(reconstruct_trajectory(_soliton_state(g), 1e-3, NORTH, EAST, 6,
                                         snapshot_every=3))
    assert len(states) == 3
    assert [s.time for s in states] == pytest.approx([0.0, 3e-3, 6e-3])


def _bump_state():
    g = Grid((64, 64), (4 * np.pi, 4 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeanHolonomy)
        state, _ = gnls_seed_from_map(geo.SPHERE, g, u)
    return state


def test_hermite_midpoint_is_fourth_order():
    errors = []
    for dt in (8e-4, 4e-4):
        state = _bump_state()
        q0_half, _, a0_half = gnls_step(state, dt / 2.0).fields()
        _, (_, (q0, a0), _) = _gnls_stages(state, dt)
        errors.append(max(np.max(np.abs(q0 - q0_half)),
                          np.max(np.abs(a0 - a0_half))))
    assert errors[0] < 1e-10
    assert errors[1] < errors[0] / 12.0


def _soliton_gnls():
    return _soliton_state(Grid((256,), (20 * np.pi,)))


def test_gnls_trajectory_takes_five_poisson_solves_per_step(monkeypatch):
    # in 1D the one Poisson solve of a derivation is the a_0 equation
    solves = []
    solve = smframe.gnls.a0_from_q0

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(smframe.gnls, "a0_from_q0", counted)
    state, _ = _gnls_stages(_soliton_gnls(), 1e-4)
    first = len(solves)
    for _ in range(9):
        state, _ = _gnls_stages(state, 1e-4)
    assert len(solves) - first <= 5 * 9


def test_1d_gnls_stages_take_28_transforms(fft_census, real_fft_census):
    # the RK4 stages k2, k3, k4 and the end state each take a complex pair
    # for d_x q and one for the dealias pass, and a real pair for a_0; the
    # midpoint's fields-only pass takes one complex and one real pair
    state, _ = _gnls_stages(_soliton_gnls(), 1e-4)  # leaves the end state's memo
    fft_census.clear()
    real_fft_census.clear()
    _gnls_stages(state, 1e-4)
    assert real_fft_census == {"fwd_1d": 5, "inv_1d": 5}
    assert fft_census == {"fwd_1d": 9 + 5, "inv_1d": 9 + 5}


def test_reconstruction_derives_the_initial_connection_once(monkeypatch):
    calls = []
    derive = smframe.gnls.connection_from_coordinates

    def counted(*args, **kwargs):
        calls.append(1)
        return derive(*args, **kwargs)

    state = _bump_state()
    monkeypatch.setattr(smframe.gnls, "connection_from_coordinates", counted)
    list(reconstruct_trajectory(state, 1e-4, NORTH, EAST, 3))
    # the initial slice shares the first step's k1 derivation; each step
    # then derives k2, k3, k4, the end stage and the midpoint
    assert len(calls) == 1 + 5 * 3


@pytest.mark.parametrize("make, dt", [(_soliton_gnls, 1e-4)], ids=["gnls"])
def test_next_step_starts_from_the_last_end_stage(make, dt):
    state, stages = _gnls_stages(make(), dt)
    end = stages[-1]
    for _ in range(3):
        state, stages = _gnls_stages(state, dt)
        assert all(np.array_equal(a, b) for a, b in zip(stages[0], end))
        end = stages[-1]


def test_gnls_trajectory_checks_cfl_at_the_full_step():
    state = _soliton_gnls()
    with pytest.warns(CFLViolation):
        _gnls_stages(state, 1.5 * CFL_CONSTANT * state.grid.spacing[0] ** 2)
