import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings

from smframe import geometry as geo
from smframe import presets
from smframe.diagnostics import (DiagnosticsLog, DiagnosticsRow, energy_map, geodesic_gap,
                                 lorentz_weighted_energy)
from smframe.direct import MapState, map_moment
from smframe.errors import CadenceMismatch, NegativeEnergy
from smframe.field import Grid, gradient, integrate
from smframe.gnls import gnls_mass, gnls_seed_from_map

from test_direct import _maps, _random_map


def _state(target, grid, u):
    return MapState(grid=grid, target=target, time=0.0, u=u)


def test_killing_functionals_closed_forms():
    g = Grid((32,), (2.0,))
    north = np.broadcast_to(geo.SPHERE.base_point, g.shape + (3,)).copy()
    assert np.allclose(map_moment(_state(geo.SPHERE, g, north)),
                       [0.0, 0.0, 2.0])
    apex = np.broadcast_to(geo.HYPERBOLIC.base_point, g.shape + (3,)).copy()
    assert np.allclose(map_moment(_state(geo.HYPERBOLIC, g, apex)),
                       [0.0, 0.0, 0.0])


def test_energy_map_values():
    g = Grid((64,), (2 * np.pi,))
    const = np.broadcast_to(geo.SPHERE.base_point, g.shape + (3,)).copy()
    assert energy_map(_state(geo.SPHERE, g, const)) == 0.0
    # unit-speed great circle over length 2 pi has Dirichlet energy 2 pi
    circ = presets.great_circle(g, turns=1)
    assert abs(energy_map(_state(geo.SPHERE, g, circ)) - 2 * np.pi) < 1e-12


def test_energy_map_matches_gauge_mass():
    g = Grid((64, 64), (8 * np.pi, 8 * np.pi))
    u = presets.sphere_bump_2d(g, 0.5, 1.4)
    st = gnls_seed_from_map(geo.SPHERE, g, u)[0]
    energy = energy_map(_state(geo.SPHERE, g, u))
    assert abs(energy - 2.0 * gnls_mass(st)) < 1e-10


def test_energy_map_rejects_timelike_gradients():
    # swapping the roles of cosh and sinh leaves the "hyperboloid" and makes
    # the gradient timelike, so the Lorentz energy goes negative
    g = Grid((64,), (2 * np.pi,))
    x = g.axis_coord(0)
    chi = 0.3 * np.sin(x)
    bad = np.stack([np.sinh(chi), np.cosh(chi), np.zeros_like(x)], axis=-1)
    with pytest.raises(NegativeEnergy):
        energy_map(_state(geo.HYPERBOLIC, g, bad))


def test_lorentz_weighted_energy():
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    u = presets.gaussian_bump_chi(g, 0.4, 0.8)
    st = _state(geo.HYPERBOLIC, g, u)
    weighted = lorentz_weighted_energy(st)
    plain = energy_map(st)
    # u0 = cosh chi >= 1, so the weighted value dominates the plain one
    assert weighted >= plain > 0.0


def test_diagnostics_row_validate():
    DiagnosticsRow(time=0.0).validate()
    with pytest.raises(ValueError):
        DiagnosticsRow(time=math.nan).validate()


def test_diagnostics_log_roundtrip(tmp_path):
    log = DiagnosticsLog(tmp_path, "runA")
    assert log.path.name == "runA.diag.csv"
    rows = [
        DiagnosticsRow(time=0.0, mass=1.25, moment=(0.1, -0.2, 0.3)),
        DiagnosticsRow(time=0.1, energy=2.5, residual_sm=1e-7,
                       constraint_max=3e-16),
    ]
    for r in rows:
        log.append(r)
    with open(log.path, newline="") as fh:
        back = [{k: float(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]
    assert len(back) == 2
    assert back[0]["mass"] == 1.25  # repr round-trip is exact
    assert [back[0][f"moment_{i}"] for i in (1, 2, 3)] == [0.1, -0.2, 0.3]
    assert math.isnan(back[0]["energy"])
    assert back[1]["residual_sm"] == 1e-7
    assert math.isnan(back[1]["moment_1"])


def test_diagnostics_csv_header(tmp_path):
    # perfbench and external readers address the columns by these names
    log = DiagnosticsLog(tmp_path, "runH")
    assert log.path.read_text().splitlines() == [",".join([
        "time", "mass", "energy", "moment_1", "moment_2", "moment_3",
        "killing_1", "killing_2", "killing_3", "residual_compat_1",
        "residual_compat_2", "residual_compat_3", "residual_sm",
        "constraint_max", "periodicity_defect"])]


def test_diagnostics_log_requires_increasing_time(tmp_path):
    log = DiagnosticsLog(tmp_path, "runB")
    log.append(DiagnosticsRow(time=0.5))
    with pytest.raises(ValueError):
        log.append(DiagnosticsRow(time=0.5))
    with pytest.raises(ValueError):
        log.append(DiagnosticsRow(time=0.4))


def _trajectory(g, shift=0.0, n=3):
    out = []
    for k in range(n):
        u = presets.great_circle(g, turns=1)
        if shift:
            u = geo.retract(geo.SPHERE, u + np.array([0.0, 0.0, shift]))
        out.append(MapState(grid=g, target=geo.SPHERE, time=0.1 * k, u=u))
    return out


def test_geodesic_gap_of_identical_states():
    g = Grid((32,), (2 * np.pi,))
    run, shifted = _trajectory(g), _trajectory(g, shift=0.1)
    assert [geodesic_gap(s, s) for s in run] == [0.0, 0.0, 0.0]
    assert all(geodesic_gap(a, b) > 0.0 for a, b in zip(run, shifted))


def test_geodesic_gap_cadence_check():
    g = Grid((32,), (2 * np.pi,))
    a, b = _trajectory(g)[:2]
    with pytest.raises(CadenceMismatch):
        geodesic_gap(a, b)
    late = MapState(grid=g, target=geo.SPHERE, time=a.time + 2e-9, u=a.u)
    with pytest.raises(CadenceMismatch):
        geodesic_gap(a, late)
    assert geodesic_gap(a, MapState(grid=g, target=geo.SPHERE, time=a.time + 5e-10,
                                    u=a.u)) == 0.0


def test_energy_map_takes_one_forward_transform_and_none_when_memoized(fft_census):
    # Parseval on the state's half spectra: one forward transform makes them,
    # and a second functional (or the next step) reads the memo
    g = Grid((32, 32), (4 * np.pi, 4 * np.pi))
    st = _state(geo.HYPERBOLIC, g, presets.gaussian_bump_chi(g, 0.5, 0.8))
    fft_census.clear()
    energy = energy_map(st)
    assert energy > 0.0
    assert fft_census == {"fwd_nd": 1}
    fft_census.clear()
    assert energy_map(st) == energy
    assert fft_census == {}


@settings(max_examples=60, deadline=None)
@given(**_maps)
def test_parseval_energy_equals_the_gradient_integral(target, n, length, kmax, amplitude, seed):
    g = Grid(n, (length,) * len(n))
    u = _random_map(target, g, kmax, amplitude, seed)
    du = gradient(g, u)
    expect = integrate(g, np.sum(geo.inner(target, du, du), axis=0))
    # round-off of the Lorentz sum scales with the Euclidean one, sum |d_k u|^2;
    # subnormal squares (amplitudes near 1e-160) keep only an absolute accuracy
    scale = integrate(g, np.sum(du * du, axis=(0, -1)))
    assert abs(energy_map(_state(target, g, u)) - expect) <= 1e-14 * scale + np.finfo(float).tiny
