"""Experiment execution behind the command-line front-end.

`PLANS` maps each experiment to a function that checks the config and
returns a `Plan`: its states at t = 0 and at the snapshot cadence (from
`field.march`), and a state's diagnostics row and final snapshot fields.
`execute` runs every plan through one loop and leaves a JSON manifest
(config echo, code version, wall time) next to the outputs.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time as _time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import gnls, presets
from .config import RunConfig
from .direct import MapState, heisenberg_step, map_moment, parabolic_sm_step
from .errors import ConfigError, FrameInvalid, SmframeError
from .field import march
from .gauge import compatibility_residual
from .geometry import SPHERE, check_on_manifold, constraint_defect
from .reconstruct import MapFrameState, reconstruct_trajectory, sm_residual
from .snapshot import Snapshot, read_snapshot, write_snapshot

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
    parameters take integral values."""
    params = inspect.signature(preset, eval_str=True).parameters
    kwargs = {}
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


def _snapshot_field(snap: Snapshot, name: str) -> np.ndarray:
    """Snapshot field `name`, one value per grid point: a 3-vector for the map u."""
    value, shape = snap.fields[name], snap.grid.shape + ((3,) if name == "u" else ())
    if value.shape != shape:  # a complex u has the grid's shape
        raise ValueError(f"snapshot field {name!r} has shape {value.shape}, expected {shape}")
    return value


def _initial(cfg: RunConfig, name: str) -> np.ndarray:
    """Finite initial q (complex coordinate) or u (ambient map on the target)."""
    kind, table = ("field", FIELD_PRESETS) if name == "q" else ("map", MAP_PRESETS)
    source = "initial.snapshot" if cfg.snapshot_path else "initial.preset"
    if cfg.snapshot_path:
        snap = read_snapshot(cfg.snapshot_path)
        if (snap.grid, snap.target) != (cfg.grid, cfg.target):
            raise ConfigError(source, f"snapshot is {snap.target.kind} on {snap.grid}, the "
                              f"config {cfg.target.kind} on {cfg.grid}")
        if name not in snap.fields:
            raise ConfigError(source, f"snapshot has no field {name!r} "
                              f"(it holds {', '.join(snap.fields) or 'none'})")
        try:
            value = _snapshot_field(snap, name)
        except ValueError as exc:
            raise ConfigError(source, str(exc)) from exc
    elif cfg.preset not in table:
        raise ConfigError(source, f"{cfg.preset!r} is not a {kind} preset "
                          f"(expected one of {', '.join(table)})")
    else:
        preset = table[cfg.preset]
        try:
            value = preset(cfg.grid, **_preset_kwargs(cfg, preset))
        except (OverflowError, ValueError) as exc:
            raise ConfigError(source, f"preset {cfg.preset!r} failed on its parameters: "
                              f"{exc}") from exc
    if not np.all(np.isfinite(value)):
        raise ConfigError(source, f"initial {kind} {name!r} is not finite")
    if name == "u":
        try:
            check_on_manifold(cfg.target, value)
        except FrameInvalid as exc:
            raise ConfigError(source, f"initial map is not on the target: {exc}") from exc
    return value


class Plan(NamedTuple):
    """One experiment, set up and ready to run."""

    states: Iterator  # the t = 0 state, then every logged state
    row: Callable  # state -> DiagnosticsRow
    final: Callable  # state -> fields of the final snapshot
    energy0: float | None  # map flows' Dirichlet energy at t = 0, the check's start
    summary: Callable | None  # () -> the roundtrip.json record, after the run


def _march(cfg: RunConfig, state, step) -> Iterator:
    """`march` of step(state, dt[, epsilon]) over the configured steps and cadence."""
    args = (cfg.dt,) if cfg.epsilon is None else (cfg.dt, cfg.epsilon)
    return march(state, lambda s: step(s, *args), cfg.n_steps, cfg.snapshot_every)


def _nls1d(cfg: RunConfig) -> Plan:
    grid, kappa = cfg.grid, cfg.target.kappa
    if grid.dim != 1:
        raise ConfigError("grid.n", f"nls1d runs on a 1D grid, not {grid.n}")

    def advance(s: gnls.GnlsState) -> gnls.GnlsState:
        q = gnls.nls1d_step(grid, s.q[0], cfg.dt, kappa)
        return gnls.GnlsState(grid, cfg.target, s.time + cfg.dt, q[np.newaxis])

    def row(s: gnls.GnlsState) -> diag.DiagnosticsRow:
        return diag.DiagnosticsRow(time=s.time, mass=gnls.gnls_mass(s),
                                   energy=gnls.nls1d_energy(grid, s.q[0], kappa))

    state = gnls.GnlsState(grid, cfg.target, 0.0, _initial(cfg, "q")[np.newaxis])
    return Plan(march(state, advance, cfg.n_steps, cfg.snapshot_every), row,
                lambda s: {"q": s.q[0]}, None, None)


def _gnls(cfg: RunConfig) -> Plan:
    """gnls and parabolic-gnls from the Coulomb-gauge seed of the initial map."""
    state, _ = gnls.gnls_seed_from_map(cfg.target, cfg.grid, _initial(cfg, "u"))

    def row(s: gnls.GnlsState) -> diag.DiagnosticsRow:
        # reads q and a only: no q_0, a_0 derived or kept for the residual
        a = gnls.connection_from_coordinates(cfg.target, cfg.grid, s.q)
        compat = compatibility_residual(cfg.target, cfg.grid, s.q, a)
        return diag.DiagnosticsRow(time=s.time, mass=gnls.gnls_mass(s), residual_compat=compat)

    step = gnls.gnls_step if cfg.experiment == "gnls" else gnls.parabolic_gnls_step
    return Plan(_march(cfg, state, step), row,
                lambda s: {f"q{l + 1}": qi for l, qi in enumerate(s.q)}, None, None)


def _map_row(state: MapState) -> diag.DiagnosticsRow:
    moment = tuple(float(m) for m in map_moment(state))  # also the Killing functionals
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
                diag.energy_map(state), None)


def _reconstruct(cfg: RunConfig) -> Plan:
    if cfg.preset in FIELD_PRESETS:
        if cfg.grid.dim != 1 or cfg.target != SPHERE:
            raise ConfigError("initial.preset",
                              "field presets reconstruct 1D sphere maps only")
        start = gnls.GnlsState(cfg.grid, cfg.target, 0.0, _initial(cfg, "q")[np.newaxis])
    else:
        start, _ = gnls.gnls_seed_from_map(cfg.target, cfg.grid, _initial(cfg, "u"))
    states = reconstruct_trajectory(start, cfg.dt, cfg.base_m, cfg.base_v0, cfg.n_steps,
                                    cfg.snapshot_every)
    window = [None, next(states)]  # the previous, yielded and next logged states
    gap_dt = cfg.dt * cfg.snapshot_every

    def late() -> Iterator[MapFrameState]:
        # a row's residual needs the next state, so each state is yielded one step late
        for nxt in itertools.chain(states, [None]):
            window.append(nxt)
            yield window[1]
            del window[0]

    def row(st: MapFrameState) -> diag.DiagnosticsRow:
        # rows start after t = 0, so window[0] is a state; the last row has no next one
        res = (np.nan if window[2] is None
               else sm_residual(cfg.target, cfg.grid, tuple(window), gap_dt))
        return diag.DiagnosticsRow(
            time=st.time, residual_sm=res,
            constraint_max=float(np.max(np.abs(constraint_defect(cfg.target, st.u)))),
            periodicity_defect=st.periodicity_defect)

    return Plan(late(), row, lambda st: {"u": st.u, "e": st.e}, None, None)


def _roundtrip(cfg: RunConfig) -> Plan:
    """Direct map flow vs gauge-side evolution + reconstruction of one seed, in lockstep."""
    direct = _map_flow(cfg)
    first = next(direct.states)
    gstate, e_fixed = gnls.gnls_seed_from_map(cfg.target, cfg.grid, first.u)
    center = cfg.grid.center_index
    recon = reconstruct_trajectory(gstate, cfg.dt, first.u[center], e_fixed[center],
                                   cfg.n_steps, cfg.snapshot_every)
    sweep = next(recon)  # t = 0; its wrap mismatch is the run's periodicity_defect
    recon = itertools.chain([sweep], recon)
    times, gaps = [], []

    def paired() -> Iterator[MapState]:
        for st in itertools.chain([first], direct.states):
            yield st  # logged and energy-checked before the reconstruction steps
            gap = diag.geodesic_gap(st, next(recon))
            if not np.isfinite(gap):
                raise SmframeError(f"geodesic gap is not finite at t = {st.time:g}")
            times.append(st.time)
            gaps.append(gap)

    def summary() -> dict:
        return {"times": times, "geodesic_gap": gaps, "max_gap": float(np.max(gaps)),
                "periodicity_defect": sweep.periodicity_defect}

    return direct._replace(states=paired(), summary=summary)


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
        if cfg.experiment == "parabolic-sm":  # dissipative: the energy never rises
            if not row.energy <= e0 * (1.0 + 1e-12) + 1e-14:
                raise SmframeError(f"parabolic energy rose from {e0:.15e} to {row.energy:.15e}"
                                   f" at step {i * cfg.snapshot_every}, t = {state.time:g}")
            e0 = row.energy
        elif e0 is not None and not abs(row.energy - e0) <= ENERGY_DRIFT * max(e0, 1.0):
            raise SmframeError(f"energy {row.energy:.6g} left E0 = {e0:.6g} at step "
                               f"{i * cfg.snapshot_every}, t = {state.time:g}")
    fields = plan.final(state)
    for name, value in fields.items():  # a field that is not finite fails the run
        if not np.isfinite(np.max(np.abs(value))):  # nan and inf propagate
            raise SmframeError(f"field {name!r} is not finite at t = {state.time:g}")
    summary = plan.summary() if plan.summary else None  # before any output file
    write_snapshot(outdir / f"{cfg.run_id}.final.smfs", cfg.grid, cfg.target,
                   state.time, fields)
    if summary is not None:
        with open(outdir / f"{cfg.run_id}.roundtrip.json", "w") as fh:
            json.dump(summary, fh, indent=2)
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
                                u=_snapshot_field(snap, "u")))
    qnames = sorted(name for name in snap.fields if name in ("q", "q1", "q2"))
    if qnames:
        row.mass = gnls.gnls_mass(gnls.GnlsState(
            grid=snap.grid, target=snap.target, time=snap.time,
            q=np.array([_snapshot_field(snap, n) for n in qnames])))
    return row
