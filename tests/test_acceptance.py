"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line summarizing its measured
numbers, then asserts, so a full run gives a readable scorecard:

    python -m pytest tests/test_acceptance.py -v
"""

import numpy as np
import pytest

from smframe import geometry as geo
from smframe import presets
from smframe.diagnostics import (convergence_order, energy_map,
                                 lorentz_weighted_energy)
from smframe.direct import MapState, heisenberg_step, map_moment, parabolic_sm_step
from smframe.field import Grid, integrate
from smframe.gauge import (best_reference_frame, compatibility_residual, coulomb_fix,
                           exponential_gauge_connection,
                           exponential_gauge_curl_residual,
                           extract_coordinates, gauge_transform, rotate_frame)
from smframe.gnls import (GnlsState, connection_from_coordinates, gnls_dissipation,
                          gnls_mass, gnls_seed_from_map, gnls_step,
                          nls1d_step, parabolic_gnls_step)
from smframe.reconstruct import initial_data_sweep, reconstruct_trajectory, sm_residual


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\n[acceptance] criterion {num:02d} {name}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_soliton_fidelity():
    g = Grid((1024,), (40 * np.pi,))
    q = presets.soliton(g, 2.0)
    m0 = gnls_mass(GnlsState(g, geo.SPHERE, 0.0, q[np.newaxis]))
    dt, n_steps = 1e-3, 1000
    for _ in range(n_steps):
        q = nls1d_step(g, q, dt, 1)
    exact = presets.soliton(g, 2.0) * np.exp(1j * n_steps * dt)
    l2_err = float(np.sqrt(integrate(g, np.abs(q - exact) ** 2)))
    # relative drift: roundoff accumulation scales with the mass itself
    mass_drift = abs(gnls_mass(GnlsState(g, geo.SPHERE, 0.0, q[np.newaxis])) - m0) / m0
    ok = l2_err < 1e-6 and mass_drift < 1e-12
    assert _report(1, "soliton-fidelity", ok,
                   f"L2 err {l2_err:.2e} < 1e-6, "
                   f"relative mass drift {mass_drift:.2e} < 1e-12")


# -- 2 ----------------------------------------------------------------------

def _soliton_state(g: Grid) -> GnlsState:
    # in 1D the Coulomb-gauge GNLS (a_1 = 0) is the cubic NLS
    return GnlsState(grid=g, target=geo.SPHERE, time=0.0, q=presets.soliton(g, 2.0)[np.newaxis])


def _soliton_reconstruction_residual(n: int, dt: float, t_end: float) -> float:
    g = Grid((n,), (40 * np.pi,))
    m, v0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    states = list(reconstruct_trajectory(_soliton_state(g), dt, m, v0,
                                         int(round(t_end / dt))))
    return sm_residual(geo.SPHERE, g, tuple(states[-3:]), dt)


def test_criterion_02_equivalence_residual():
    t_end = 8e-3
    res_c = _soliton_reconstruction_residual(512, 2e-3, t_end)
    res_f = _soliton_reconstruction_residual(1024, 5e-4, t_end)
    order = convergence_order(res_c, res_f, refinement=2.0)
    ok = order >= 2.0 and res_f < 1e-4
    assert _report(2, "equivalence-residual", ok,
                   f"residual {res_c:.2e} -> {res_f:.2e}, "
                   f"order {order:.2f} >= 2, fine < 1e-4")


# -- 3 ----------------------------------------------------------------------

def _map_roundtrip_error(n: int) -> float:
    g = Grid((n,), (16 * np.pi,))
    u = presets.perturbed_great_circle(g, 0.05, 4, 7)
    e = best_reference_frame(geo.SPHERE, u)
    q, a = extract_coordinates(geo.SPHERE, g, u, e)
    q, a, theta = coulomb_fix(g, q, a)
    e = rotate_frame(geo.SPHERE, u, e, theta)
    c = g.center_index
    st = initial_data_sweep(geo.SPHERE, g, q, a, u[c], e[c])
    return float(np.max(geo.geodesic_distance(geo.SPHERE, st.u, u)))


def test_criterion_03_roundtrip_identity():
    err_c = _map_roundtrip_error(256)
    err_f = _map_roundtrip_error(512)
    order = convergence_order(err_c, err_f, refinement=2.0)
    ok = err_f < 1e-6 and order >= 2.0
    assert _report(3, "roundtrip-identity", ok,
                   f"geodesic err {err_f:.2e} < 1e-6 at N=512, "
                   f"order {order:.2f} >= 2")


# -- 4 ----------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::smframe.errors.MeanHolonomy")
def test_criterion_04_compatibility_persistence():
    g = Grid((128, 128), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.0)
    state = gnls_seed_from_map(geo.SPHERE, g, u)[0]

    def compat(st):
        return max(compatibility_residual(
            st.target, st.grid, st.q, connection_from_coordinates(st.target, st.grid, st.q)))

    initial = compat(state)
    dt, n_steps = 5e-5, 2000
    worst = initial
    for step in range(1, n_steps + 1):
        state = gnls_step(state, dt)
        if step % 200 == 0:
            worst = max(worst, compat(state))
    ok = initial < 1e-8 and worst < 1e-5
    assert _report(4, "compatibility-persistence", ok,
                   f"t=0 residual {initial:.2e} < 1e-8, "
                   f"max over t<=0.1 {worst:.2e} < 1e-5")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_parabolic_energy_identity():
    g = Grid((64,), (8 * np.pi,))
    eps, dt = 0.1, 1e-4
    nu = eps / (1.0 + eps**2)
    state = GnlsState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                      q=presets.random_bandlimited(g, 6, 0.3, 11)[np.newaxis])
    worst_rel = 0.0
    monotone = True
    for _ in range(50):
        e0, d0 = gnls_mass(state), gnls_dissipation(state)
        state = parabolic_gnls_step(state, dt, eps)
        e1, d1 = gnls_mass(state), gnls_dissipation(state)
        rate = (e1 - e0) / dt
        model = -nu * 0.5 * (d0 + d1)
        worst_rel = max(worst_rel, abs(rate - model) / abs(model))
        monotone = monotone and e1 <= e0
    ok = worst_rel < 1e-3 and monotone
    assert _report(5, "parabolic-energy-identity", ok,
                   f"worst relative identity error {worst_rel:.2e} < 1e-3, "
                   f"energy nonincreasing: {monotone}")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_mass_decay_identity():
    g = Grid((64, 64), (4 * np.pi, 4 * np.pi))
    eps, dt = 0.1, 1e-4
    nu = eps / (1.0 + eps**2)
    state = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                     u=presets.gaussian_bump_chi(g, 0.5, 0.8))
    worst_rel = 0.0
    monotone = True
    for _ in range(50):
        m0, w0 = map_moment(state)[0], lorentz_weighted_energy(state)
        state = parabolic_sm_step(state, dt, eps)
        m1, w1 = map_moment(state)[0], lorentz_weighted_energy(state)
        rate = (m1 - m0) / dt
        model = -nu * 0.5 * (w0 + w1)
        worst_rel = max(worst_rel, abs(rate - model) / abs(model))
        monotone = monotone and m1 <= m0
    ok = worst_rel < 1e-3 and monotone
    assert _report(6, "mass-decay-identity", ok,
                   f"worst relative identity error {worst_rel:.2e} < 1e-3, "
                   f"moment nonincreasing: {monotone}")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_conservation_suite():
    dt, n_steps = 1e-4, 10000  # one unit of time

    g = Grid((256,), (16 * np.pi,))
    state = MapState(grid=g, target=geo.SPHERE, time=0.0,
                     u=presets.perturbed_great_circle(g, 0.05, 4, 7))
    mom0, en0 = map_moment(state), energy_map(state)
    for _ in range(n_steps):
        state = heisenberg_step(state, dt)
    drift_s = max(float(np.max(np.abs(map_moment(state) - mom0))),
                  abs(energy_map(state) - en0))

    state = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0,
                     u=presets.gaussian_bump_chi(g, 0.4, 1.0))
    kil0, en0 = map_moment(state), energy_map(state)
    for _ in range(n_steps):
        state = heisenberg_step(state, dt)
    drift_h = max(float(np.max(np.abs(map_moment(state) - kil0))),
                  abs(energy_map(state) - en0))

    ok = drift_s < 1e-8 and drift_h < 1e-8
    assert _report(7, "conservation-suite", ok,
                   f"sphere drift {drift_s:.2e}, hyperbolic drift "
                   f"{drift_h:.2e}, both < 1e-8 per unit time")


# -- 8 ----------------------------------------------------------------------

def _bump_coordinates(n: int):
    g = Grid((n, n), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    e = best_reference_frame(geo.SPHERE, u)
    q, a = extract_coordinates(geo.SPHERE, g, u, e)
    return g, q, a


def test_criterion_08_gauge_algebra():
    g, q, a = _bump_coordinates(64)
    x1, _ = g.coords()
    th1, th2 = 0.2 * np.sin(x1 / 4.0), -0.7 * np.cos(x1 / 4.0)

    one = gauge_transform(g, *gauge_transform(g, q, a, th1), th2)
    both = gauge_transform(g, q, a, th1 + th2)
    group_err = max(float(np.max(np.abs(one[0][k] - both[0][k])))
                    for k in range(2))

    q1, a1, _ = coulomb_fix(g, q, a)
    q2, a2, th_again = coulomb_fix(g, q1, a1)
    idem_err = float(np.max(np.abs(th_again)))
    mod_err = max(float(np.max(np.abs(np.abs(q1[k]) - np.abs(q[k]))))
                  for k in range(2))

    f12 = geo.curvature_f(geo.SPHERE, q[0], q[1])
    a_exp = exponential_gauge_connection(g, f12)
    radial = float(np.max(np.abs(x1 * a_exp[0]
                                 + g.coords()[1] * a_exp[1])))
    curl_c = exponential_gauge_curl_residual(g, a_exp, f12)
    gf, qf, _ = _bump_coordinates(128)
    ff = geo.curvature_f(geo.SPHERE, qf[0], qf[1])
    curl_f = exponential_gauge_curl_residual(
        gf, exponential_gauge_connection(gf, ff), ff)

    ok = (group_err < 1e-12 and idem_err < 1e-8 and mod_err < 1e-12
          and radial < 1e-8 and curl_f < curl_c)
    assert _report(8, "gauge-algebra", ok,
                   f"group law {group_err:.1e}, idempotence {idem_err:.1e}, "
                   f"|q| preserved {mod_err:.1e}, radial identity {radial:.1e} "
                   f"< 1e-8, curl residual {curl_c:.1e} -> {curl_f:.1e}")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_equivariance():
    g = Grid((256,), (20 * np.pi,))
    # rotation by 0.7 rad about the normalized (1, 2, 3) axis
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    ang = 0.7
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(ang) * K + (1.0 - np.cos(ang)) * (K @ K)

    m = np.array([0.0, 0.0, 1.0])
    v0 = np.array([1.0, 0.0, 0.0])

    def run(m, v0):
        return list(reconstruct_trajectory(_soliton_state(g), 1e-3, m, v0, 20))

    run_a = run(m, v0)
    run_b = run(R @ m, R @ v0)
    gap = 0.0
    for sa, sb in zip(run_a, run_b):
        gap = max(gap, float(np.max(np.abs(sa.u @ R.T - sb.u))),
                  float(np.max(np.abs(sa.e @ R.T - sb.e))))
    ok = gap < 1e-10
    assert _report(9, "equivariance", ok,
                   f"max |R u - u'| over 20 steps {gap:.2e} < 1e-10")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_parabolic_limit():
    g = Grid((64, 64), (4 * np.pi, 4 * np.pi))
    u0 = presets.gaussian_bump_chi(g, 0.5, 0.8)
    dt, n_steps, sample_every = 1e-4, 1000, 50
    epsilons = (0.2, 0.1, 0.05)

    ref = MapState(grid=g, target=geo.HYPERBOLIC, time=0.0, u=u0)
    runs = {eps: MapState(grid=g, target=geo.HYPERBOLIC, time=0.0, u=u0.copy())
            for eps in epsilons}
    gaps = {eps: 0.0 for eps in epsilons}
    for step in range(1, n_steps + 1):
        ref = heisenberg_step(ref, dt)
        for eps in epsilons:
            runs[eps] = parabolic_sm_step(runs[eps], dt, eps)
        if step % sample_every == 0:
            for eps in epsilons:
                d = float(np.max(geo.geodesic_distance(
                    geo.HYPERBOLIC, runs[eps].u, ref.u)))
                gaps[eps] = max(gaps[eps], d)

    ratios = [gaps[0.2] / gaps[0.1], gaps[0.1] / gaps[0.05]]
    # the gap scales like nu(eps) = eps / (1 + eps^2), so the halving ratio
    # approaches 2 from below (1.94, 1.99 at these epsilons); the Cauchy
    # property is tested at the sharp rate, not at the unattainable ratio 2
    scaled = [gaps[e] * (1.0 + e**2) / e for e in epsilons]
    spread = max(scaled) / min(scaled)
    decreasing = gaps[0.2] > gaps[0.1] > gaps[0.05] > 0.0
    ok = decreasing and all(r >= 1.85 for r in ratios) and spread < 1.10
    assert _report(10, "parabolic-limit", ok,
                   f"gaps {gaps[0.2]:.3e}/{gaps[0.1]:.3e}/{gaps[0.05]:.3e}, "
                   f"halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} >= 1.85, "
                   f"nu-scaled spread {spread:.3f} < 1.10")
