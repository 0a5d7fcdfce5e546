"""Experiment execution behind the command-line front-end.

Each experiment advances its solver, appends diagnostics rows at the
snapshot cadence, writes state snapshots, and leaves a JSON manifest
(config echo, code version, wall time) next to the outputs.
"""

from __future__ import annotations

import inspect
import json
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import gnls, presets
from .config import RunConfig
from .direct import (MapState, heisenberg_step, hyperbolic_sm_step, map_moment,
                     parabolic_sm_step)
from .errors import ConfigError, SmframeError
from .gauge import Connection, Coordinates, best_reference_frame, compatibility_residual
from .geometry import SPHERE, constraint_defect
from .reconstruct import (BasePointData, GnlsTrajectory, reconstruct_trajectory,
                          sm_residual)
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


#: (experiment, target kind) -> solver step; parabolic steps also take epsilon
STEPPERS = {
    ("gnls", "sphere"): gnls.gnls_step,
    ("gnls", "hyperbolic"): gnls.gnls_step,
    ("parabolic-gnls", "sphere"): gnls.parabolic_gnls_step,
    ("parabolic-gnls", "hyperbolic"): gnls.parabolic_gnls_step,
    ("direct-sm", "sphere"): heisenberg_step,
    ("direct-sm", "hyperbolic"): hyperbolic_sm_step,
    ("parabolic-sm", "hyperbolic"): parabolic_sm_step,
    ("roundtrip", "sphere"): heisenberg_step,
    ("roundtrip", "hyperbolic"): hyperbolic_sm_step,
}


def _stepper(cfg: RunConfig):
    """state -> state after one step of dt, as the config selects."""
    step = STEPPERS.get((cfg.experiment, cfg.target.kind))
    if step is None:
        raise ConfigError("run.target",
                          f"{cfg.experiment} has no {cfg.target.kind} solver")
    args = (cfg.dt,) if cfg.epsilon is None else (cfg.dt, cfg.epsilon)
    return lambda state: step(state, *args)


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


def _initial(cfg: RunConfig, table: dict, kind: str, name: str) -> np.ndarray:
    if cfg.snapshot_path:
        fields = read_snapshot(cfg.snapshot_path).fields
        if name not in fields:
            raise ConfigError("initial.snapshot",
                              f"snapshot has no field {name!r} "
                              f"(it holds {', '.join(fields) or 'none'})")
        return fields[name]
    if cfg.preset not in table:
        raise ConfigError("initial.preset",
                          f"{cfg.preset!r} is not a {kind} preset "
                          f"(expected one of {', '.join(table)})")
    preset = table[cfg.preset]
    return preset(cfg.grid, **_preset_kwargs(cfg, preset))


def initial_field(cfg: RunConfig) -> np.ndarray:
    """Complex coordinate seed for nls1d-style runs."""
    return _initial(cfg, FIELD_PRESETS, "field", "q")


def initial_map(cfg: RunConfig) -> np.ndarray:
    """Ambient map seed for map-side and gauge-extraction runs."""
    return _initial(cfg, MAP_PRESETS, "map", "u")


def _write_manifest(outdir: Path, cfg: RunConfig, config_text: str,
                    wall_time: float) -> None:
    manifest = {
        "run_id": cfg.run_id,
        "experiment": cfg.experiment,
        "version": __version__,
        "wall_time_seconds": wall_time,
        "config": config_text,
    }
    with open(outdir / f"{cfg.run_id}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_final(cfg: RunConfig, outdir: Path, time: float, fields: dict) -> None:
    """Write the final snapshot; a field that is not finite is a failed run."""
    for name, value in fields.items():
        if not np.isfinite(np.max(np.abs(value))):  # nan and inf propagate
            raise SmframeError(f"field {name!r} is not finite at t = {time:g}")
    write_snapshot(outdir / f"{cfg.run_id}.final.smfs", cfg.grid, cfg.target,
                   time, fields)


def _run_nls1d(cfg: RunConfig, outdir: Path, log: diag.DiagnosticsLog) -> None:
    kappa = cfg.target.kappa
    q = initial_field(cfg)
    for step in range(1, cfg.n_steps + 1):
        q = gnls.nls1d_step(cfg.grid, q, cfg.dt, kappa)
        if step % cfg.snapshot_every == 0:
            log.append(diag.DiagnosticsRow(
                time=step * cfg.dt,
                mass=gnls.nls1d_mass(cfg.grid, q),
                energy=gnls.nls1d_energy(cfg.grid, q, kappa)))
    _write_final(cfg, outdir, cfg.n_steps * cfg.dt, {"q": q})


def _seed_gnls(cfg: RunConfig, u: np.ndarray) -> tuple[gnls.GnlsState, np.ndarray]:
    """Coulomb-gauge state of the map u and its frame rotated into that gauge."""
    e = best_reference_frame(cfg.target, u)
    return gnls.gnls_seed_from_map(cfg.target, cfg.grid, u, e)


def _run_gnls(cfg: RunConfig, outdir: Path, log: diag.DiagnosticsLog) -> None:
    advance = _stepper(cfg)
    state, _ = _seed_gnls(cfg, initial_map(cfg))
    for step in range(1, cfg.n_steps + 1):
        state = advance(state)
        if step % cfg.snapshot_every == 0:
            # reads q and a only: no q_0, a_0 derived or kept for the residual
            compat = compatibility_residual(cfg.target, cfg.grid, Coordinates(q=state.q),
                                            Connection(a=state.connection()))
            log.append(diag.DiagnosticsRow(
                time=state.time, mass=gnls.gnls_mass(state),
                residual_compat=compat.as_tuple()))
    _write_final(cfg, outdir, state.time,
                 {f"q{l + 1}": qi for l, qi in enumerate(state.q)})


def _map_row(state: MapState) -> diag.DiagnosticsRow:
    moment = tuple(map_moment(state))  # also the Killing functionals
    return diag.DiagnosticsRow(
        time=state.time,
        energy=diag.energy_map(state),
        moment=moment,
        killing=moment,
        constraint_max=state.constraint_max())


def _run_direct(cfg: RunConfig, outdir: Path, log: diag.DiagnosticsLog,
                kept: list[MapState] | None = None) -> None:
    """Step the map flow; the initial and every logged state are appended
    to `kept` when it is given."""
    advance = _stepper(cfg)
    keep = (lambda _: None) if kept is None else kept.append
    state = MapState(grid=cfg.grid, target=cfg.target, time=0.0, u=initial_map(cfg))
    keep(state)
    for step in range(1, cfg.n_steps + 1):
        state = advance(state)
        if step % cfg.snapshot_every == 0:
            log.append(_map_row(state))
            keep(state)
    _write_final(cfg, outdir, state.time, {"u": state.u})


def _trajectory(cfg: RunConfig) -> GnlsTrajectory:
    if cfg.preset in FIELD_PRESETS:
        if cfg.grid.dim != 1 or cfg.target != SPHERE:
            raise ConfigError("initial.preset",
                              "field presets reconstruct 1D sphere maps only")
        state = gnls.GnlsState(cfg.grid, cfg.target, 0.0, (initial_field(cfg),))
    else:
        state, _ = _seed_gnls(cfg, initial_map(cfg))
    return GnlsTrajectory(state=state, dt=cfg.dt)


def _run_reconstruct(cfg: RunConfig, outdir: Path, log: diag.DiagnosticsLog) -> None:
    base = BasePointData(m=cfg.base_m, v0=cfg.base_v0)
    states = reconstruct_trajectory(_trajectory(cfg), base, cfg.n_steps,
                                    cfg.snapshot_every)
    gap_dt = cfg.dt * cfg.snapshot_every
    for i, st in enumerate(states):
        if i == 0:
            continue  # log starts after t=0 (strictly increasing time column)
        res = np.nan
        if 0 < i < len(states) - 1:
            res = sm_residual(cfg.target, cfg.grid,
                              (states[i - 1], st, states[i + 1]), gap_dt)
        log.append(diag.DiagnosticsRow(
            time=st.time, residual_sm=res,
            constraint_max=float(np.max(np.abs(constraint_defect(cfg.target, st.u)))),
            periodicity_defect=states[0].periodicity_defect))
    last = states[-1]
    _write_final(cfg, outdir, last.time, {"u": last.u, "e": last.e})


def _run_roundtrip(cfg: RunConfig, outdir: Path, log: diag.DiagnosticsLog) -> None:
    """Direct map flow vs gauge-side evolution + reconstruction of one seed."""
    direct_states: list[MapState] = []
    _run_direct(cfg, outdir, log, direct_states)
    u0 = direct_states[0].u
    gstate, e_fixed = _seed_gnls(cfg, u0)
    center = cfg.grid.center_index
    base = BasePointData(m=u0[center], v0=e_fixed[center])
    recon = reconstruct_trajectory(GnlsTrajectory(state=gstate, dt=cfg.dt), base,
                                   cfg.n_steps, cfg.snapshot_every)
    report = diag.equivalence_report(direct_states, recon)
    if not np.isfinite(report.max_gap):
        raise SmframeError(f"max_gap is not finite at t = {recon[-1].time:g}")
    summary = {
        "times": report.times,
        "geodesic_gap": report.geodesic_gap,
        "max_gap": report.max_gap,
        "periodicity_defect": recon[0].periodicity_defect,
    }
    with open(outdir / f"{cfg.run_id}.roundtrip.json", "w") as fh:
        json.dump(summary, fh, indent=2)


_RUNNERS = {
    "nls1d": _run_nls1d,
    "gnls": _run_gnls,
    "parabolic-gnls": _run_gnls,
    "direct-sm": _run_direct,
    "parabolic-sm": _run_direct,
    "reconstruct": _run_reconstruct,
    "roundtrip": _run_roundtrip,
}


def execute(cfg: RunConfig, config_text: str,
            output_override: str | None = None) -> Path:
    """Run one configured experiment; returns the output directory."""
    outdir = Path(output_override or cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    log = diag.DiagnosticsLog(outdir, cfg.run_id)
    start = _time.perf_counter()
    _RUNNERS[cfg.experiment](cfg, outdir, log)
    _write_manifest(outdir, cfg, config_text, _time.perf_counter() - start)
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
