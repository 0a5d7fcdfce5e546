"""Experiment execution behind the command-line front-end.

`PLANS` maps each experiment to a function that checks the config and
returns a `Plan`: its states at t = 0 and at the snapshot cadence (from
`field.march`), and a state's diagnostics row and final snapshot fields.
`execute` runs every plan through one loop and leaves a JSON manifest
(config echo, code version, wall time) next to the outputs.
"""

from __future__ import annotations

import inspect
import json
import time as _time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import gnls, presets
from .config import RunConfig
from .direct import MapState, heisenberg_step, map_moment, parabolic_sm_step
from .errors import ConfigError, SmframeError
from .field import march
from .gauge import Connection, Coordinates, best_reference_frame, compatibility_residual
from .geometry import SPHERE, constraint_defect
from .reconstruct import (BasePointData, GnlsTrajectory, MapFrameState,
                          reconstruct_trajectory, sm_residual)
from .snapshot import read_snapshot, write_snapshot

FIELD_PRESETS = {
    "soliton": presets.soliton,
    "plane-wave": presets.plane_wave,
    "random-bandlimited": presets.random_bandlimited,
}
MAP_PRESETS = {
    "great-circle": presets.great_circle,
    "perturbed-great-circle": presets.perturbed_great_circle,
    "gaussian-bump-chi": presets.gaussian_bump_chi,
    "sphere-bump": presets.sphere_bump_2d,
}

#: a conservative map flow fails once its Dirichlet energy leaves E0 by more
#: than this fraction of max(E0, 1); the scheme drifts by under 1e-8 per unit
#: time, and the floor keeps a constant map (E0 = 0) clear of round-off
ENERGY_DRIFT = 1e-3


def _preset_kwargs(cfg: RunConfig, preset) -> dict:
    """[initial] parameters checked against the preset's signature; integer
    parameters take integral values, and `seed` defaults to the run seed."""
    params = inspect.signature(preset, eval_str=True).parameters
    kwargs = {"seed": cfg.seed} if "seed" in params else {}
    for key, value in cfg.preset_params.items():
        if key == "grid" or key not in params:
            raise ConfigError(f"initial.{key}",
                              f"preset {cfg.preset!r} has no parameter {key!r}")
        hint = params[key].annotation  # int or int | None
        if int in (hint, *getattr(hint, "__args__", ())):
            if not value.is_integer():
                raise ConfigError(f"initial.{key}", f"must be an integer, got {value}")
            value = int(value)
        kwargs[key] = value
    return kwargs


def _initial(cfg: RunConfig, name: str) -> np.ndarray:
    """Initial q (complex coordinate) or u (ambient map): snapshot or preset."""
    kind, table = ("field", FIELD_PRESETS) if name == "q" else ("map", MAP_PRESETS)
    if cfg.snapshot_path:
        snap = read_snapshot(cfg.snapshot_path)
        if (snap.grid, snap.target) != (cfg.grid, cfg.target):
            raise ConfigError("initial.snapshot",
                              f"snapshot is {snap.target.kind} on {snap.grid}, the config "
                              f"{cfg.target.kind} on {cfg.grid}")
        if name not in snap.fields:
            raise ConfigError("initial.snapshot",
                              f"snapshot has no field {name!r} "
                              f"(it holds {', '.join(snap.fields) or 'none'})")
        return snap.fields[name]
    if cfg.preset not in table:
        raise ConfigError("initial.preset",
                          f"{cfg.preset!r} is not a {kind} preset "
                          f"(expected one of {', '.join(table)})")
    preset = table[cfg.preset]
    return preset(cfg.grid, **_preset_kwargs(cfg, preset))


class Plan(NamedTuple):
    """One experiment, set up and ready to run."""

    states: Iterator  # the t = 0 state, then every logged state
    row: Callable  # state -> DiagnosticsRow
    final: Callable  # state -> fields of the final snapshot
    energy0: float | None  # Dirichlet energy held to ENERGY_DRIFT, if conserved
    summary: Callable | None  # () -> the roundtrip.json record, after the run


def _march(cfg: RunConfig, state, step) -> Iterator:
    """`march` of step(state, dt[, epsilon]) over the configured steps and cadence."""
    args = (cfg.dt,) if cfg.epsilon is None else (cfg.dt, cfg.epsilon)
    return march(state, lambda s: step(s, *args), cfg.n_steps, cfg.snapshot_every)


def _nls1d(cfg: RunConfig) -> Plan:
    grid, kappa = cfg.grid, cfg.target.kappa

    def advance(s: gnls.GnlsState) -> gnls.GnlsState:
        q = gnls.nls1d_step(grid, s.q[0], cfg.dt, kappa)
        return gnls.GnlsState(grid, cfg.target, s.time + cfg.dt, (q,))

    def row(s: gnls.GnlsState) -> diag.DiagnosticsRow:
        return diag.DiagnosticsRow(time=s.time, mass=gnls.nls1d_mass(grid, s.q[0]),
                                   energy=gnls.nls1d_energy(grid, s.q[0], kappa))

    state = gnls.GnlsState(grid, cfg.target, 0.0, (_initial(cfg, "q"),))
    return Plan(march(state, advance, cfg.n_steps, cfg.snapshot_every), row,
                lambda s: {"q": s.q[0]}, None, None)


def _seed_gnls(cfg: RunConfig, u: np.ndarray) -> tuple[gnls.GnlsState, np.ndarray]:
    """Coulomb-gauge state of the map u and its frame rotated into that gauge."""
    e = best_reference_frame(cfg.target, u)
    return gnls.gnls_seed_from_map(cfg.target, cfg.grid, u, e)


def _gnls(cfg: RunConfig) -> Plan:
    """gnls and parabolic-gnls from the Coulomb-gauge seed of the initial map."""
    state, _ = _seed_gnls(cfg, _initial(cfg, "u"))

    def row(s: gnls.GnlsState) -> diag.DiagnosticsRow:
        # reads q and a only: no q_0, a_0 derived or kept for the residual
        compat = compatibility_residual(cfg.target, cfg.grid, Coordinates(q=s.q),
                                        Connection(a=s.connection()))
        return diag.DiagnosticsRow(time=s.time, mass=gnls.gnls_mass(s),
                                   residual_compat=compat.as_tuple())

    step = gnls.gnls_step if cfg.experiment == "gnls" else gnls.parabolic_gnls_step
    return Plan(_march(cfg, state, step), row,
                lambda s: {f"q{l + 1}": qi for l, qi in enumerate(s.q)}, None, None)


def _map_row(state: MapState) -> diag.DiagnosticsRow:
    moment = tuple(map_moment(state))  # also the Killing functionals
    return diag.DiagnosticsRow(
        time=state.time,
        energy=diag.energy_map(state),
        moment=moment,
        killing=moment,
        constraint_max=state.constraint_max())


def _map_flow(cfg: RunConfig) -> Plan:
    """direct-sm, parabolic-sm, and the direct flow of roundtrip."""
    parabolic = cfg.experiment == "parabolic-sm"
    if parabolic and cfg.target.kind != "hyperbolic":
        raise ConfigError("run.target",
                          f"{cfg.experiment} has no {cfg.target.kind} solver")
    step = parabolic_sm_step if parabolic else heisenberg_step
    state = MapState(grid=cfg.grid, target=cfg.target, time=0.0, u=_initial(cfg, "u"))
    return Plan(_march(cfg, state, step), _map_row, lambda s: {"u": s.u},
                None if parabolic else diag.energy_map(state), None)


def _trajectory(cfg: RunConfig) -> GnlsTrajectory:
    if cfg.preset in FIELD_PRESETS:
        if cfg.grid.dim != 1 or cfg.target != SPHERE:
            raise ConfigError("initial.preset",
                              "field presets reconstruct 1D sphere maps only")
        state = gnls.GnlsState(cfg.grid, cfg.target, 0.0, (_initial(cfg, "q"),))
    else:
        state, _ = _seed_gnls(cfg, _initial(cfg, "u"))
    return GnlsTrajectory(state=state, dt=cfg.dt)


def _reconstruct(cfg: RunConfig) -> Plan:
    # the whole reconstruction up front: a row's residual needs the next state
    base = BasePointData(m=cfg.base_m, v0=cfg.base_v0)
    states = reconstruct_trajectory(_trajectory(cfg), base, cfg.n_steps,
                                    cfg.snapshot_every)
    index = {id(st): i for i, st in enumerate(states)}
    gap_dt = cfg.dt * cfg.snapshot_every

    def row(st: MapFrameState) -> diag.DiagnosticsRow:
        i, res = index[id(st)], np.nan
        if i < len(states) - 1:  # rows start at i = 1, after t = 0
            res = sm_residual(cfg.target, cfg.grid,
                              (states[i - 1], st, states[i + 1]), gap_dt)
        return diag.DiagnosticsRow(
            time=st.time, residual_sm=res,
            constraint_max=float(np.max(np.abs(constraint_defect(cfg.target, st.u)))),
            periodicity_defect=states[0].periodicity_defect)

    return Plan(iter(states), row, lambda st: {"u": st.u, "e": st.e}, None, None)


def _roundtrip(cfg: RunConfig) -> Plan:
    """Direct map flow vs gauge-side evolution + reconstruction of one seed."""
    direct = _map_flow(cfg)
    kept = list(direct.states)

    def summary() -> dict:
        u0 = kept[0].u
        gstate, e_fixed = _seed_gnls(cfg, u0)
        center = cfg.grid.center_index
        base = BasePointData(m=u0[center], v0=e_fixed[center])
        recon = reconstruct_trajectory(GnlsTrajectory(state=gstate, dt=cfg.dt), base,
                                       cfg.n_steps, cfg.snapshot_every)
        report = diag.equivalence_report(kept, recon)
        if not np.isfinite(report.max_gap):
            raise SmframeError(f"max_gap is not finite at t = {recon[-1].time:g}")
        return {**asdict(report), "periodicity_defect": recon[0].periodicity_defect}

    return direct._replace(states=iter(kept), summary=summary)


#: experiment -> the set-up of its Plan, which checks everything it reads
#: from the config and the initial data before any output is opened
PLANS = {
    "nls1d": _nls1d,
    "gnls": _gnls,
    "parabolic-gnls": _gnls,
    "direct-sm": _map_flow,
    "parabolic-sm": _map_flow,
    "reconstruct": _reconstruct,
    "roundtrip": _roundtrip,
}


def execute(cfg: RunConfig, config_text: str,
            output_override: str | None = None) -> Path:
    """Run one configured experiment; returns the output directory.  Each
    state after t = 0 logs a row, and the last one is the final snapshot."""
    start = _time.perf_counter()
    plan = PLANS[cfg.experiment](cfg)
    outdir = Path(output_override or cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    log = diag.DiagnosticsLog(outdir, cfg.run_id)
    state = next(plan.states)
    e0 = plan.energy0
    for i, state in enumerate(plan.states, 1):
        row = plan.row(state)
        log.append(row)
        if e0 is not None and not abs(row.energy - e0) <= ENERGY_DRIFT * max(e0, 1.0):
            raise SmframeError(f"energy {row.energy:.6g} left E0 = {e0:.6g} at step "
                               f"{i * cfg.snapshot_every}, t = {state.time:g}")
    fields = plan.final(state)
    for name, value in fields.items():  # a field that is not finite fails the run
        if not np.isfinite(np.max(np.abs(value))):  # nan and inf propagate
            raise SmframeError(f"field {name!r} is not finite at t = {state.time:g}")
    write_snapshot(outdir / f"{cfg.run_id}.final.smfs", cfg.grid, cfg.target,
                   state.time, fields)
    if plan.summary is not None:
        with open(outdir / f"{cfg.run_id}.roundtrip.json", "w") as fh:
            json.dump(plan.summary(), fh, indent=2)
    manifest = {
        "run_id": cfg.run_id,
        "experiment": cfg.experiment,
        "version": __version__,
        "wall_time_seconds": _time.perf_counter() - start,
        "config": config_text,
    }
    with open(outdir / f"{cfg.run_id}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return outdir


def diagnose_snapshot(path) -> diag.DiagnosticsRow:
    """Recompute every functional a snapshot supports from its fields alone."""
    snap = read_snapshot(path)
    row = diag.DiagnosticsRow(time=snap.time)
    if "u" in snap.fields:
        row = _map_row(MapState(grid=snap.grid, target=snap.target, time=snap.time,
                                u=snap.fields["u"]))
    qnames = sorted(name for name in snap.fields if name in ("q", "q1", "q2"))
    if qnames:
        row.mass = gnls.gnls_mass(gnls.GnlsState(
            grid=snap.grid, target=snap.target, time=snap.time,
            q=tuple(snap.fields[n] for n in qnames)))
    return row
