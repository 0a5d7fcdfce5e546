"""Conserved and dissipated functionals, geodesic gaps, CSV logging.

All functionals are evaluated in ambient coordinates; the Killing
potentials of both targets are globally smooth ambient components, so the
coordinate singularity of (chi, theta) at the base point never enters.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import geometry as geo
from .direct import MapState
from .errors import CadenceMismatch, NegativeEnergy, SmframeError
from .field import gradient, integrate


def energy_map(state: MapState) -> float:
    """Dirichlet energy int sum_k <d_k u, d_k u> in the target metric, by
    Parseval on `MapState.spectrum` (no transform once it is memoized).

    Nonnegative for states on the constraint set; a Lorentz value below
    -1e-10 means the state has left the hyperboloid and raises
    NegativeEnergy instead of silently returning garbage.
    """
    uh = state.spectrum
    power = np.tensordot(state.target.metric_diag, uh.real**2 + uh.imag**2, 1)
    value = float(np.sum(state.grid.half_dirichlet * power))
    if value < -1e-10:
        raise NegativeEnergy(
            f"Lorentz gradient energy {value:.3e} < 0: constraint breach")
    return value


def lorentz_weighted_energy(state: MapState) -> float:
    """int <grad u, grad u> u0 dx, the dissipation-rate weight of the
    parabolic hyperbolic flow (u0 = cosh chi)."""
    du = gradient(state.grid, state.u)
    density = np.sum(geo.inner(state.target, du, du), axis=0)
    return float(integrate(state.grid, density * state.u[..., 0]))


@dataclass
class DiagnosticsRow:
    """One logged observation of a run.

    Vector entries are flattened into numbered CSV columns; absent values
    are logged as NaN (e.g. mass for map-side runs).
    """

    time: float
    mass: float = math.nan
    energy: float = math.nan
    moment: tuple[float, float, float] = (math.nan,) * 3
    killing: tuple[float, float, float] = (math.nan,) * 3
    residual_compat: tuple[float, float, float] = (math.nan,) * 3
    residual_sm: float = math.nan
    constraint_max: float = math.nan
    periodicity_defect: float = math.nan

    def validate(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError("row time is not finite")


_VECTOR_FIELDS = ("moment", "killing", "residual_compat")


def _columns():
    """(CSV column, DiagnosticsRow field, vector component or None), in order."""
    for f in dc_fields(DiagnosticsRow):
        if f.name in _VECTOR_FIELDS:
            for i in range(3):
                yield f"{f.name}_{i + 1}", f.name, i
        else:
            yield f.name, f.name, None


class DiagnosticsLog:
    """Append-only per-run CSV log named <run-id>.diag.csv."""

    def __init__(self, directory, run_id: str):
        self.path = Path(directory) / f"{run_id}.diag.csv"
        self._last_time: float | None = None
        with open(self.path, "w", newline="") as fh:
            csv.writer(fh).writerow(col for col, _, _ in _columns())

    def append(self, row: DiagnosticsRow) -> None:
        row.validate()
        if self._last_time is not None and row.time <= self._last_time:
            raise ValueError(
                f"time must increase: {row.time} after {self._last_time}")
        self._last_time = row.time
        values = [float(getattr(row, name) if i is None else getattr(row, name)[i])
                  for _, name, i in _columns()]
        if any(map(math.isinf, values)):  # a finite state can overflow a functional
            raise SmframeError(f"a logged value is infinite at t = {row.time:g}")
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow(map(repr, values))


def geodesic_gap(direct, reconstructed) -> float:
    """Max over the grid of the geodesic distance between two states of the
    same map at matching times (to 1e-9).

    Accepts any state objects carrying (target, time, u).
    """
    if abs(direct.time - reconstructed.time) > 1e-9:
        raise CadenceMismatch(f"times {direct.time} and {reconstructed.time} differ")
    return float(np.max(geo.geodesic_distance(direct.target, direct.u, reconstructed.u)))


def convergence_order(err_coarse: float, err_fine: float,
                      refinement: float = 2.0) -> float:
    """Observed order log(err_coarse / err_fine) / log(refinement)."""
    if err_fine <= 0.0:
        return math.inf
    return math.log(err_coarse / err_fine) / math.log(refinement)
